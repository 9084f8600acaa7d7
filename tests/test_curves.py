import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyprank import _kernels
from hyprank._kernels import (
    BLOCK_CELLS,
    CHUNK,
    _exact_in_float,
    _mirror_double,
    _reduce_near,
    _square_block,
    correlation_row,
    first_sum_vec,
    horner_vec,
    power_total,
    powmod_vec,
    prime_blocks,
    quadratic_power_sums,
    trace_row_vec,
)
from hyprank.curves import HyperFamily, t_coeff_rows, trace_row, traces_from_rows
from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
from hyprank.moments import power_sum
from hyprank.oracles import trace_of_poly
from hyprank.polynomials import BiPoly, IntPoly, mod_gcd, parse_bipoly, reduce_mod
from support import hasse_weil_bound, with_none


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
    for r in (1, 2):
        with pytest.raises(ValueError, match="p = 5 is in the family's bad-prime skip set"):
            power_sum(fam, r, PrimeCtx(5))
    with pytest.raises(ValueError, match="moment order must be >= 1"):
        power_sum(fam, 0, PrimeCtx(5))  # the order is checked first
    assert power_sum(fam, 2, PrimeCtx(7)) == sum(a * a for a in trace_row(fam, PrimeCtx(7)))


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
    for p in primes_in(PrimeRange(3, 100)):
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
    for p in primes_in(PrimeRange(3, 60)):
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


ENGINE_PRIMES = primes_in(PrimeRange(3, 31))


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


QUAD_PRIMES = primes_in(PrimeRange(3, 61))


ODD_PRIMES_TO_300 = primes_in(PrimeRange(3, 300))


def euler_trace_rows(F: BiPoly, p: int) -> list[int]:
    """-sum_x (F(x, t)/p) for t = 0..p-1 over the whole grid, in int64 with
    Euler's criterion tabulated, without chi."""
    ar = np.arange(p, dtype=np.int64)
    euler = powmod_vec(ar, (p - 1) // 2, p)
    v = np.zeros((p, p), dtype=np.int64)  # v[t, x]
    for j in range(F.deg_t + 1):
        row = sum(c % p * powmod_vec(ar, i, p) % p for (i, jj), c in F.terms.items() if jj == j)
        v += powmod_vec(ar, j, p)[:, None] * (row % p)
        v %= p
    e = euler[v]
    return ((e == p - 1).sum(axis=1) - (e == 1).sum(axis=1)).tolist()


def euler_first_sums(F: BiPoly, primes) -> list[int]:
    """sum_t a_t at each prime, from :func:`euler_trace_rows`."""
    return [sum(euler_trace_rows(F, p)) for p in primes]


def _first_sums_by_block(coeffs, blocks) -> list[int]:
    return [s for block in blocks for s in first_sum_vec(coeffs, block)]


# F = lead x^(2g+1) T^lead_t + lower terms of degree <= 2 in T, scaled
QUADRATIC_FAMILIES = dict(
    genus=st.integers(1, 2),
    lower=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 2)),
        st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100)),
        max_size=6,
    ),
    lead_t=st.integers(0, 2),
    lead=st.sampled_from([1, 5, 5 * 293]),
    scale=st.sampled_from(["one", "1001", "huge"]),
    drop_t2=st.booleans(),
    cuts=st.lists(st.integers(1, len(ODD_PRIMES_TO_300) - 1), max_size=4),
)


def quadratic_family(genus, lower, lead_t, lead, scale, drop_t2) -> BiPoly:
    """The F of QUADRATIC_FAMILIES; drop_t2 multiplies the T^2 terms by 3 * 61."""
    n = 2 * genus + 1
    terms = {(i, j): c for (i, j), c in lower.items() if i < n}
    terms[(n, lead_t)] = lead
    if drop_t2:
        terms = {(i, j): c * 3 * 61 if j == 2 else c for (i, j), c in terms.items()}
    s = {"one": 1, "1001": 1001, "huge": 3**70 * 1001 + 1}[scale]  # 1001 = 7 * 11 * 13
    return BiPoly({k: s * c for k, c in terms.items()})


def cut_blocks(primes, cuts) -> list[list[int]]:
    edges = [0, *sorted(set(cuts)), len(primes)]
    return [primes[a:b] for a, b in zip(edges, edges[1:])]


@settings(max_examples=25, deadline=None)
@given(**QUADRATIC_FAMILIES)
# a = b = 0 at x = 1: F = x^3 + (x - 1) T^2 + (x - 1) T + 2
@example(genus=1, lower={(1, 2): 1, (0, 2): -1, (1, 1): 1, (0, 1): -1, (0, 0): 2},
         lead_t=0, lead=1, scale="one", drop_t2=False, cuts=[1, 2])
# a = 0 at x = 0 with b != 0 there: F = x^3 + x T^2 + T + 1
@example(genus=1, lower={(1, 2): 1, (0, 1): 1, (0, 0): 1}, lead_t=0, lead=1, scale="one",
         drop_t2=False, cuts=[30])
# 3 and 61 divide the T^2 coefficient, so deg_T drops to 1 mod them
@example(genus=2, lower={(2, 2): 3, (0, 2): 1, (1, 1): 2, (0, 0): -1}, lead_t=0, lead=1,
         scale="one", drop_t2=True, cuts=[])
# 5 and 293 divide the lead of a(x); F = 0 mod 7, 11 and 13
@example(genus=2, lower={(4, 1): 5, (0, 2): 1, (0, 0): 3}, lead_t=2, lead=5 * 293,
         scale="1001", drop_t2=False, cuts=[3, 4, 5, 6])
@example(genus=1, lower={(2, 1): -(2**100), (0, 2): 2**99 + 1}, lead_t=1, lead=5,
         scale="huge", drop_t2=False, cuts=[59])
def test_first_sum_vec_matches_dense_and_euler(genus, lower, lead_t, lead, scale, drop_t2,
                                               cuts):
    """The block kernel at every odd prime <= 300, in blocks cut anywhere, in
    the scans' own blocks and one prime at a time, against the sum of the
    dense trace row and Euler's criterion."""
    F = quadratic_family(genus, lower, lead_t, lead, scale, drop_t2)
    coeffs = [F.t_coeff(j).coeffs for j in range(F.deg_t + 1)]
    primes = ODD_PRIMES_TO_300
    dense = [sum(trace_row_vec(t_coeff_rows(F, ctx), ctx)) for ctx in map(PrimeCtx, primes)]
    assert dense == euler_first_sums(F, primes)
    assert _first_sums_by_block(coeffs, cut_blocks(primes, cuts)) == dense
    assert _first_sums_by_block(coeffs, prime_blocks(primes)) == dense
    assert _first_sums_by_block(coeffs, [[p] for p in primes]) == dense


def _power_sums_by_block(coeffs, r, blocks) -> list:
    return [s for block in blocks for s in quadratic_power_sums(coeffs, r, block)]


@settings(max_examples=12, deadline=None)
@given(**QUADRATIC_FAMILIES, r=st.integers(2, 4))
# a = b = 0 at x = 1: F = x^3 + (x - 1) T^2 + (x - 1) T + 2, rank-one at every p
@example(genus=1, lower={(1, 2): 1, (0, 2): -1, (1, 1): 1, (0, 1): -1, (0, 0): 2},
         lead_t=0, lead=1, scale="one", drop_t2=False, cuts=[1, 2], r=2)
# a = 0 at x = 0 with b != 0 there: F = x^3 + x T^2 + T + 1
@example(genus=1, lower={(1, 2): 1, (0, 1): 1, (0, 0): 1}, lead_t=0, lead=1, scale="one",
         drop_t2=False, cuts=[30], r=3)
# b = 0 at x = 0 with a != 0 there: F = x^3 + (x + 1) T^2 + x T + 1
@example(genus=1, lower={(1, 2): 1, (0, 2): 1, (1, 1): 1, (0, 0): 1}, lead_t=0, lead=1,
         scale="one", drop_t2=False, cuts=[], r=4)
# b - a = 7: F = x^3 + (x + 1) T^2 + (x + 8) T + 1 is rank-one mod 7 alone
@example(genus=1, lower={(1, 2): 1, (0, 2): 1, (1, 1): 1, (0, 1): 8, (0, 0): 1}, lead_t=0,
         lead=1, scale="one", drop_t2=False, cuts=[2, 3], r=2)
# 3 and 61 divide the T^2 coefficient, so deg_T drops to 1 mod them
@example(genus=2, lower={(2, 2): 3, (0, 2): 1, (1, 1): 2, (0, 0): -1}, lead_t=0, lead=1,
         scale="one", drop_t2=True, cuts=[], r=3)
# 5 and 293 divide the lead of a(x); F = 0 mod 7, 11 and 13
@example(genus=2, lower={(4, 1): 5, (0, 2): 1, (0, 0): 3}, lead_t=2, lead=5 * 293,
         scale="1001", drop_t2=False, cuts=[3, 4, 5, 6], r=4)
@example(genus=1, lower={(2, 1): -(2**100), (0, 2): 2**99 + 1}, lead_t=1, lead=5,
         scale="huge", drop_t2=False, cuts=[59], r=2)
def test_quadratic_power_sums_match_rows_and_euler(genus, lower, lead_t, lead, scale, drop_t2,
                                                   cuts, r):
    """The block route of the r >= 2 moments at every odd prime <= 300, in
    blocks cut anywhere, in the scans' own blocks and one prime at a time,
    against the dense trace row and Euler's criterion.  It gives a value at
    every prime, those where F is rank-one mod p included."""
    F = quadratic_family(genus, lower, lead_t, lead, scale, drop_t2)
    coeffs = [F.t_coeff(j).coeffs for j in range(F.deg_t + 1)]
    primes = ODD_PRIMES_TO_300
    sums = _power_sums_by_block(coeffs, r, cut_blocks(primes, cuts))
    assert _power_sums_by_block(coeffs, r, prime_blocks(primes)) == sums
    assert _power_sums_by_block(coeffs, r, [[p] for p in primes]) == sums
    for p, total in zip(primes, sums):
        ctx = PrimeCtx(p)
        dense = trace_row_vec(t_coeff_rows(F, ctx), ctx).tolist()
        assert dense == euler_trace_rows(F, p), p
        assert type(total) is int and total == sum(a**r for a in dense), p


def test_quadratic_power_sums_on_a_prime_past_block_cells():
    # 8209, past BLOCK_CELLS = 2^12, forms a block alone
    F = parse_bipoly("x^5 - x + (x^2 - 1)*T^2 + 3*x^3*T + 5")
    coeffs = [F.t_coeff(j).coeffs for j in range(F.deg_t + 1)]
    p = 8209
    assert prime_blocks([8191, p]) == [[8191], [p]]
    ctx = PrimeCtx(p)
    row = trace_row_vec(t_coeff_rows(F, ctx), ctx).tolist()
    for r in (2, 3):
        assert quadratic_power_sums(coeffs, r, [p]) == [sum(a**r for a in row)]


def test_quadratic_power_sums_where_deg_t_drops_to_two():
    # 7 x T^3 vanishes mod 7 alone, which leaves a = x, b = 1: not rank-one;
    # the kernel takes the rows up to T^2 there, and refuses the T^3 row over Z
    F = parse_bipoly("x^3 + 7*x*T^3 + x*T^2 + T + 1")
    coeffs = [F.t_coeff(j).coeffs for j in range(F.deg_t + 1)]
    ctx = PrimeCtx(7)
    dense = trace_row_vec(t_coeff_rows(F, ctx), ctx).tolist()
    assert dense == euler_trace_rows(F, 7)
    for r in (2, 3, 4):
        assert quadratic_power_sums(coeffs[:3], r, [7]) == [sum(a**r for a in dense)]
    for block in ([5], [7], [5, 7], [7, 11]):
        with pytest.raises(ValueError, match="deg_T F <= 2"):
            quadratic_power_sums(coeffs, 2, block)


@pytest.mark.parametrize("r, n", [(2, 1009), (3, 1009), (4, 10007), (7, 101)])
def test_power_total_exact_on_both_sides_of_the_int64_bound(r, n):
    """Synthetic rows of n values with max |a| = m, at the largest m with
    n m^r < 2^63 and one past it, where an int64 sum would wrap."""
    top = int(((1 << 63) / n) ** (1 / r))
    while n * (top + 1) ** r < 1 << 63:
        top += 1
    while n * top**r >= 1 << 63:
        top -= 1
    rng = np.random.default_rng(r)
    for m in (top, top + 1):
        mixed = rng.integers(-m, m + 1, n)
        mixed[:2] = m, -m
        for traces in (np.full(n, m, dtype=np.int64), mixed):
            assert power_total(traces, r) == sum(int(a) ** r for a in traces), (m, r)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 997, 10007])
def test_word_mirror_equals_the_byte_copy(p):
    """Every class of p mod 8 (and of h = (p + 1) / 2 mod 8), p = 3 with no
    whole word and p = 7 with its tail alone among them."""
    h = (p + 1) // 2
    words, block, _ = _square_block(p)
    block[:, :h] = np.random.default_rng(p).integers(-1, 2, (len(block), h))
    want = np.empty_like(block)
    want[:, :h] = block[:, :h]
    want[:, h:p] = want[:, h - 1 : 0 : -1]
    want[:, p:] = want[:, : p - 1]
    _mirror_double(words, block)
    assert np.array_equal(block, want)


def test_prime_blocks_cut_at_block_cells():
    primes = primes_in(PrimeRange(3, 20000))
    blocks = prime_blocks(primes)
    assert [p for block in blocks for p in block] == primes
    assert all(sum(b) <= BLOCK_CELLS or len(b) == 1 for b in blocks)
    # no block would have room for the first prime of the next
    assert all(sum(a) + b[0] > BLOCK_CELLS for a, b in zip(blocks, blocks[1:]))
    assert len(blocks[0]) > 1 and blocks[-1] == [primes[-1]]
    assert prime_blocks([]) == []


def test_first_sum_vec_where_deg_t_drops_to_two():
    # the drops family: 7 x T^3 vanishes mod 7 alone; the kernel takes the
    # rows up to T^2 there, and refuses the T^3 row over Z
    F = parse_bipoly("x^3 + 7*x*T^3 + T^2 + 1")
    coeffs = [F.t_coeff(j).coeffs for j in range(F.deg_t + 1)]
    ctx = PrimeCtx(7)
    assert first_sum_vec(coeffs[:3], [7]) == [sum(trace_row_vec(t_coeff_rows(F, ctx), ctx))]
    assert first_sum_vec(coeffs[:3], [7]) == euler_first_sums(F, [7])
    for block in ([5], [7], [5, 7], [7, 11]):
        with pytest.raises(ValueError, match="deg_T F <= 2"):
            first_sum_vec(coeffs, block)


# F by the shape of a, b and c mod p that first_sum_vec meets
FIRST_SUM_SHAPES = {
    # a = 105 is constant, and 0 mod 3, 5 and 7
    "constant a, p | a": "x^3 + x*T + 105*T^2 + 1",
    # linear twists: a is 0, and D = b^2 has b's zeros, with c = 1 and c varying
    "a = 0, c = 1": "(x - 1)*(x - 2)*(x - 3)*T + 1",
    "a = 0, c varies": "(x^3 + x + 1)*T + x^2 + 3",
    # D = -28 a x vanishes mod 7 at every x; a = b = 0 at a(1) = 7
    "D = 0 mod 7": "(x^3 + x + 5)*(T + 1)^2 + 7*x",
    # D = -28 x^3 (x + 1) with a = x^3: a monomial, and D = 0 mod 7
    "D = 0 mod 7, a = x^3": "x^3*(T + 1)^2 + 7*x + 7",
    # D = 0 over Z: every cell of every prime is a zero of D
    "D = 0, a varies": "(x^3 + x + 1)*(T + 1)^2",
    "D = 0, no T": "x^3 + x + 1",
    # a = b = 0 at x = 1, and a = x - 1 is no monomial
    "a = b = 0 at x = 1": "x^3 + (x - 1)*T^2 + (x - 1)*T + 2",
    # a with roots: no monomial, and monomials of odd and even degree
    "a = x^2 - 1": "x^3 + (x^2 - 1)*T^2 + x*T + 1",
    "a = 3 x^3": "3*x^3*T^2 + x*T + x + 1",
    "a = x^2": "x^3 + x^2*T^2 + T + 1",
}


@functools.lru_cache(maxsize=None)
def _first_sum_references(text: str) -> tuple[list[int], list[int]]:
    """sum_t a_t at every odd prime <= 300 from the dense trace row and from
    Euler's criterion on the whole grid."""
    F = parse_bipoly(text)
    dense = [int(trace_row_vec(t_coeff_rows(F, ctx), ctx).sum())
             for ctx in map(PrimeCtx, ODD_PRIMES_TO_300)]
    return dense, euler_first_sums(F, ODD_PRIMES_TO_300)


@pytest.mark.parametrize("shape", FIRST_SUM_SHAPES)
@settings(max_examples=8, deadline=None)
@given(cuts=st.lists(st.integers(1, len(ODD_PRIMES_TO_300) - 1), max_size=4))
def test_first_sum_vec_on_every_shape_of_a(shape, cuts):
    """The zeros of D = b^2 - 4ac at every odd prime <= 300, 3 included, in
    blocks cut anywhere, in the scans' own blocks and one prime at a time,
    against the dense trace row and Euler's criterion."""
    F = parse_bipoly(FIRST_SUM_SHAPES[shape])
    coeffs = [F.t_coeff(j).coeffs for j in range(F.deg_t + 1)]
    dense, euler = _first_sum_references(FIRST_SUM_SHAPES[shape])
    assert dense == euler
    primes = ODD_PRIMES_TO_300
    assert _first_sums_by_block(coeffs, cut_blocks(primes, cuts)) == dense
    assert _first_sums_by_block(coeffs, prime_blocks(primes)) == dense
    assert _first_sums_by_block(coeffs, [[p] for p in primes]) == dense


ODD_PRIMES_TO_1500 = primes_in(PrimeRange(3, 1500))


def _route_declines(weight, disc, p) -> bool:
    """Whether first_sum_roots leaves p to first_sum_vec: the weight is no
    monomial alpha x^k over Z, D = 0, or p divides alpha or lead(D)."""
    terms = [v for v in weight if v]
    return len(terms) != 1 or terms[0] % p == 0 or not disc or disc[-1] % p == 0


# F = c + b T + a T^2 with a monomial weight: a = alpha x^k, or a = 0 and c = alpha x^k
MONOMIAL_WEIGHTS = dict(
    on_a=st.booleans(),
    k=st.integers(0, 5),
    alpha=st.sampled_from([1, -1, 2, 3, -5, 7 * 11, 3 * 5 * 7, 3**40 + 2]),
    b=st.lists(st.integers(-9, 9), max_size=5),
    c=st.lists(st.integers(-9, 9), max_size=5),
    lead=st.sampled_from([1, 3, 13, 3 * 7]),
    zero_at_0=st.booleans(),
)


def monomial_weight_family(on_a, k, alpha, b, c, lead, zero_at_0) -> list[list[int]]:
    """The t_coeffs [c, b, a] of MONOMIAL_WEIGHTS.  ``lead`` scales the top
    coefficient of b, which leads D where deg b^2 > deg ac; ``zero_at_0``
    clears b(0), and c(0) where a is constant, so that D(0) = 0."""
    weight = [0] * k + [alpha]
    b = b + [lead]
    if zero_at_0:
        b[0] = 0
        if on_a and k == 0 and c:
            c[0] = 0
    c = c if on_a else weight
    rows = [c, b, weight if on_a else []]
    for row in rows:
        while row and not row[-1]:
            row.pop()
    return rows


@settings(max_examples=40, deadline=None)
@given(**MONOMIAL_WEIGHTS)
# big_rank's shape: odd k with c(0) != 0, and D(0) = b(0)^2 = 0
@example(on_a=True, k=5, alpha=1, b=[0, 3, 1], c=[2, 0, -1], lead=1, zero_at_0=True)
# even k >= 2 with D(0) = 0, alpha divisible by 3, 5 and 7
@example(on_a=True, k=2, alpha=3 * 5 * 7, b=[0, 1], c=[4, 1], lead=1, zero_at_0=True)
# a = 0 and c = alpha x of degree 1: D = b, and 3 and 7 divide its lead
@example(on_a=False, k=1, alpha=2, b=[1, 1, 0, 5], c=[], lead=3 * 7, zero_at_0=False)
# a = 0, c = alpha x^2 and D(0) = b(0) = 0
@example(on_a=False, k=2, alpha=-1, b=[0, 2], c=[], lead=13, zero_at_0=True)
# k = 0 with D(0) = 0, and 3 dividing lead(D) = lead(b)^2
@example(on_a=True, k=0, alpha=-5, b=[1, 1], c=[1, 0, 1], lead=3, zero_at_0=True)
# a constant D: no roots at any prime
@example(on_a=True, k=3, alpha=1, b=[], c=[], lead=1, zero_at_0=False)
def test_first_sum_roots_matches_first_sum_vec_and_dense(on_a, k, alpha, b, c, lead, zero_at_0):
    """The root-count route at every odd prime <= 1500, 3 included, against
    first_sum_vec there and against the sum of the dense trace row at every
    odd prime <= 300; it declines exactly the primes that divide alpha or
    lead(D)."""
    coeffs = monomial_weight_family(on_a, k, alpha, b, c, lead, zero_at_0)
    c, b, a = coeffs
    disc = _kernels._discriminant(tuple(c), tuple(b), tuple(a))
    primes = ODD_PRIMES_TO_1500
    got = with_none(*_kernels.first_sum_roots(coeffs, primes))
    assert [s is None for s in got] == [_route_declines(a or c, disc, p) for p in primes]
    want = _first_sums_by_block(coeffs, prime_blocks(primes))
    assert [s for s in got if s is not None] == [w for s, w in zip(got, want) if s is not None]
    F = BiPoly({(i, j): v for j, row in enumerate(coeffs) for i, v in enumerate(row) if v})
    for p, s in zip(primes, got):
        if p > 300:
            break
        if s is not None:
            ctx = PrimeCtx(p)
            assert s == int(trace_row_vec(t_coeff_rows(F, ctx), ctx).sum()), p


@pytest.mark.parametrize("text", ["3*x^3*T^2 + x*T + x + 1", "(x^3 + x + 1)*T + 2*x"])
def test_first_sum_roots_matches_dense_to_1500(text):
    """Odd k on a (with D(0) = 0 at every prime, and 3 | alpha), and odd k on
    c where a = 0: the route against the sum of the dense trace row at
    every odd prime <= 1500."""
    F = parse_bipoly(text)
    coeffs = [F.t_coeff(j).coeffs for j in range(3)]
    got = with_none(*_kernels.first_sum_roots(coeffs, ODD_PRIMES_TO_1500))
    assert sum(s is None for s in got) <= 1
    for p, s in zip(ODD_PRIMES_TO_1500, got):
        if s is not None:
            ctx = PrimeCtx(p)
            assert s == int(trace_row_vec(t_coeff_rows(F, ctx), ctx).sum()), p


def test_first_sum_roots_declines_exactly_the_fallback_primes_of_every_shape():
    """Every prime of a weight that is no monomial, and the primes that
    divide alpha or lead(D) of one that is, on the shapes first_sum_vec is
    tested on."""
    for text in FIRST_SUM_SHAPES.values():
        F = parse_bipoly(text)
        coeffs = [F.t_coeff(j).coeffs for j in range(F.deg_t + 1)][:3]
        c, b, a = (coeffs + [[], []])[:3]
        got = with_none(*_kernels.first_sum_roots(coeffs, ODD_PRIMES_TO_300))
        disc = _kernels._discriminant(tuple(c), tuple(b), tuple(a))
        assert [s is None for s in got] == [_route_declines(a or c, disc, p)
                                            for p in ODD_PRIMES_TO_300], text


def _split_family(roots, cofactor, k, alpha, on_a) -> list[list[int]]:
    """The t_coeffs [c, b, a] of a monomial weight alpha x^k whose D has the
    integer roots ``roots`` (repeats are multiplicities) and the cofactor
    ``cofactor``, times a constant: with P = cofactor * prod (x - r),
    F = P T + alpha x^k (D = P), or F = alpha x^k T^2 - P (D = 4 alpha x^k P)."""
    P = IntPoly(cofactor)
    for r in roots:
        P = P * IntPoly([-r, 1])
    weight = [0] * k + [alpha]
    return [weight, list(P.coeffs), []] if not on_a else [[-v for v in P.coeffs], [], weight]


def _first_sum_roots_unsplit(coeffs, primes):
    """first_sum_roots with a root finder that finds nothing, so that every
    D is all cofactor: every prime past deg D takes the Frobenius chain,
    and every other one D's values at its residues."""
    find = _kernels._integer_roots
    _kernels._split_roots.cache_clear()
    _kernels._integer_roots = lambda f: []
    try:
        return _kernels.first_sum_roots(coeffs, primes)
    finally:
        _kernels._integer_roots = find
        _kernels._split_roots.cache_clear()


# 2 and -1 meet mod 3, 4 and -1 mod 5, 17 and -13 mod 2, 3 and 5; 3, 5 and 7
# divide 105; x^2 + 1 vanishes at 2 and -2 mod 5, x^2 - 2 at 3 mod 7, and
# x^2 + x + 1 at 1 mod 3 and at 2 mod 7.  No cofactor has an integer root.
SPLIT_ROOTS = st.sampled_from([0, 1, -1, 2, -2, 3, 4, 9, 17, -13, 35, -105, 1156])
COFACTORS = st.sampled_from([[1], [3], [1, 0, 1], [-2, 0, 1], [1, 1, 1], [1, 1, 0, 1],
                             [3, 0, 5], [1, 0, 2, 0, 1]])


@settings(max_examples=40, deadline=None)
@given(roots=st.lists(SPLIT_ROOTS, max_size=5), cofactor=COFACTORS, k=st.integers(0, 3),
       alpha=st.sampled_from([1, -1, 2, 4, -3, 5 * 7]), on_a=st.booleans())
# big_rank's shape: odd k, a square alpha, and roots that are squares in Z
@example(roots=[1, 4, 9], cofactor=[1], k=3, alpha=1, on_a=True)
# a repeated root 0, roots that meet mod 3 and 5, and a cofactor that meets 2 mod 5
@example(roots=[0, 0, 2, -1, 4], cofactor=[1, 0, 1], k=1, alpha=2, on_a=False)
# no split root: D is all cofactor
@example(roots=[], cofactor=[1, 1, 0, 1], k=2, alpha=-3, on_a=False)
def test_first_sum_roots_on_split_discriminants(roots, cofactor, k, alpha, on_a):
    """D with prescribed integer roots and cofactor: the split finds exactly
    the roots, and the route agrees with first_sum_vec, and with itself
    where nothing is split, at every odd prime <= 1500; it declines exactly
    the primes that divide alpha or lead(D)."""
    coeffs = _split_family(roots, cofactor, k, alpha, on_a)
    c, b, a = coeffs
    disc = _kernels._discriminant(tuple(c), tuple(b), tuple(a))
    found, g, _ = _kernels._split_roots(tuple(disc))
    assert list(found) == sorted(set(roots) | ({0} if on_a and k else set()))
    assert len(g) == len(cofactor)
    primes = ODD_PRIMES_TO_1500
    got = with_none(*_kernels.first_sum_roots(coeffs, primes))
    assert [s is None for s in got] == [_route_declines(a or c, disc, p) for p in primes]
    want = _first_sums_by_block(coeffs, prime_blocks(primes))
    assert [s for s in got if s is not None] == [w for s, w in zip(got, want) if s is not None]
    unsplit = with_none(*_first_sum_roots_unsplit(coeffs, primes))
    assert unsplit == got


def _roots_by_enumeration(f, p):
    """The distinct zeros of f among the p residues, and the sum of their
    characters by Euler's criterion."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        vals = (vals * xs + c % p) % p
    zeros = np.flatnonzero(vals == 0).tolist()
    return len(zeros), sum(1 if pow(z, p >> 1, p) == 1 else -1 for z in zeros if z)


@st.composite
def _root_count_polys(draw):
    """content * prod (x - r)^m * g: roots in [-30, 30] with multiplicities
    up to 3, the root 0 often, content of either sign, and a cofactor g of
    degree 0 to 12 that is odd at 0 and at 1, so odd at every integer and
    free of integer roots."""
    d = draw(st.integers(0, 12))
    g = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    g += [draw(st.sampled_from([1, 2, -3, 5, 7]))]
    g[0] |= 1
    if d == 1:
        g[1] *= 2
    elif sum(g) % 2 == 0:
        g[1] += 1
    f = IntPoly(g) * (draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1])))
    roots = draw(st.lists(st.one_of(st.just(0), st.integers(-30, 30)), max_size=5))
    for r in roots:
        f = f * IntPoly([-r, 1]) ** draw(st.integers(1, 3))
    return f.coeffs


@settings(max_examples=40, deadline=None)
@given(_root_count_polys())
# a root 0 of multiplicity 3, a double root, content 6 and a negative lead
@example((-6 * IntPoly([0, 1]) ** 3 * IntPoly([-2, 1]) ** 2 * IntPoly([1, 0, 1])).coeffs)
# a cofactor of degree 12 and no integer root: every prime <= 11 by evaluation
@example((IntPoly([3, 1] + [0] * 10 + [1]) * IntPoly([5, 1])).coeffs)
# a constant: no roots
@example((-15,))
def test_root_counts_match_enumeration(f):
    """root_counts in both modes at every odd prime <= 300 that does not
    divide lead(f), against the zeros of f among the p residues."""
    primes = [p for p in ODD_PRIMES_TO_300 if f[-1] % p]
    want = [_roots_by_enumeration(f, p) for p in primes]
    assert _kernels.root_counts(f, primes).tolist() == [n for n, _ in want]
    assert _kernels.root_counts(f, primes, signed=True).tolist() == [s for _, s in want]


def test_integer_roots_up_to_the_bound():
    """Every integer root where Fujiwara's bound is at most ROOT_BOUND, and
    none past it, where D keeps the Frobenius chain."""
    near = (IntPoly([-30000, 1]) * IntPoly([3, 1]) * IntPoly([1, 0, 1])).coeffs
    assert _kernels._integer_roots(near) == [-3, 30000]
    far = (IntPoly([-40000, 1]) * IntPoly([3, 1])).coeffs
    assert _kernels._integer_roots(far) == []
    assert _kernels._integer_roots((5,)) == [] and _kernels._integer_roots((0, 2)) == [0]
    assert _kernels._integer_roots((1, 0, 2)) == []  # 2x^2 + 1: no real root
    assert _kernels._integer_roots((-1, 2)) == []  # 2x - 1: a rational root only
    # x^5 - x: B = 2 and q = 5, where it vanishes at every residue
    assert _kernels._integer_roots((0, -1, 0, 0, 0, 1)) == [-1, 0, 1]


@pytest.mark.parametrize("factors", [
    [[0, 1]] * 7 + [[-2, 1]] * 2 + [[1, 0, 1]] + [[3]],
    [[0, 1]] * 40 + [[1, 1], [-3, 1], [-5]],
    [[0, 1]] + [[2, 1]] * 3,
    [[0, 0, 0, 1], [-1, 0, 1], [4, 0, 0, 1]],
], ids=["x^7 with a double root and content 3", "x^40, negative lead", "simple root 0",
        "x^3 and a cofactor"])
def test_split_roots_takes_a_multiple_root_zero_at_once(factors):
    """The root 0 leaves _split_roots as its run of low zero coefficients,
    and the split equals the one made one synthetic division at a time."""
    f = tuple(math.prod((IntPoly(v) for v in factors), start=IntPoly.const(1)).coeffs)
    content = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    g = [v // content for v in f]
    roots = _kernels._integer_roots(g)
    for r in roots:
        while not _kernels._divide_linear(g, r)[1]:
            g = _kernels._divide_linear(g, r)[0]
    keys = [_kernels._divide_linear(g, r)[1] * math.prod(r - s for s in roots[:i])
            for i, r in enumerate(roots)]
    assert 0 in roots
    assert _kernels._split_roots(f) == (tuple(roots), tuple(g), tuple(keys))


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
    corr, dense = correlation_row(rows, ctx).tolist(), trace_row_vec(rows, ctx).tolist()
    assert corr == dense == euler_trace_row(F, p)


HORNER_COEFFS = [0, 1, -1, 1 << 200, -(1 << 200)]
HORNER_COEFFS += [s * ((1 << e) + d) for e in (31, 63) for d in (1, -1) for s in (1, -1)]


@pytest.mark.parametrize("p", [3, 5, 10007, 67108859])
def test_horner_vec_matches_horner_in_python_ints(p):
    """horner_vec, which reduces only where int64 could overflow, against
    Horner's rule in Python ints mod p: degrees 0..12, coefficients at the
    raw and int64 edges, on every residue of p, or on 10^4 residues of
    67108859, the largest prime below 2^26."""
    rng = np.random.default_rng(p)
    xs = np.arange(p, dtype=np.int64)
    if p > 1 << 14:
        xs = np.concatenate(([0, 1, p - 1], rng.integers(0, p, 10**4 - 3)))
    for d in range(13):
        # one draw from the edges, and one list of a single edge value
        for coeffs in (rng.choice(HORNER_COEFFS, d + 1).tolist(),
                       [HORNER_COEFFS[d % len(HORNER_COEFFS)]] * (d + 1)):
            want = []
            for x in xs.tolist():
                acc = 0
                for c in reversed(coeffs):
                    acc = (acc * x + c) % p
                want.append(acc)
            got = horner_vec(coeffs, xs, p)
            assert got.dtype == np.int64 and got.tolist() == want, (p, coeffs)


def test_trace_rows_are_int64_arrays_of_length_p():
    """Every row kernel and traces_from_rows return an int64 array of length
    p, the constant rows (no nonzero row, no T, a T-row zero at every x)
    included, and all of them the same traces."""
    for p in (3, 7, 101):
        ctx = PrimeCtx(p)
        c = horner_vec([1, 1, 0, 1], np.arange(p, dtype=np.int64), p)  # x^3 + x + 1
        cases = [[None, None, None], [c], [c, np.zeros(p, dtype=np.int64)]]
        cases += [t_coeff_rows(parse_bipoly(text), ctx) for text in (
            "x^3 + x*T^2 + T + 1", "x^3 + x*T + 1", "x^3 + x*T^3 + T + 1")]
        for rows in cases:
            dense = trace_row_vec(rows, ctx)
            kernels = [dense, traces_from_rows(rows, ctx)]
            kernels += [row for row in [correlation_row(rows, ctx)] if row is not None]
            for row in kernels:
                assert type(row) is np.ndarray and row.dtype == np.int64, (p, len(rows))
                assert row.shape == (p,) and np.array_equal(row, dense), (p, len(rows))


def test_correlation_row_declines_rows_that_are_not_proportional():
    for text in ("x^3 + x*T^2 + T + 1", "x^3 + x*T^3 + T + 1"):
        fam = fam_of(text, 1)
        ctx = PrimeCtx(101)
        assert correlation_row(t_coeff_rows(fam.F, ctx), ctx) is None


def test_first_sum_vec_refuses_cubic_rows():
    with pytest.raises(ValueError, match="deg_T F <= 2"):
        quadratic_power_sums([[1], [], [], [0, 1]], 2, [5])
    with pytest.raises(ValueError, match="deg_T F <= 2"):
        first_sum_vec([[1], [], [], [0, 1]], [5])


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


# the float64 dense kernel: its 2^53 bound, its reduction and maximal entries

FLOAT_EXACT = 1 << 53
THREE_ROW_EDGE = 54794158  # isqrt(2^53 / 3)
THREE_ROW_PRIME = 54794149  # the largest prime <= isqrt(2^53 / 3)


def test_dense_kernel_refuses_rows_past_float_exactness():
    p = 67108859  # the largest prime below 2^26, which check_dense lets through
    rows = [np.broadcast_to(np.int64(p - 1), (p,))] * 3  # zero-stride: no p-long memory
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\^53"):
            trace_row_vec(rows, PrimeCtx(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_float_exactness_bound_edges():
    assert _exact_in_float(3, THREE_ROW_EDGE)
    assert not _exact_in_float(3, THREE_ROW_EDGE + 1)
    assert _exact_in_float(3, THREE_ROW_PRIME)
    assert _exact_in_float(2, 67108859)  # one or two rows: every prime below 2^26
    assert not _exact_in_float(3, 67108859)


@pytest.mark.parametrize("p", [3, 5, 7, 1009, THREE_ROW_PRIME])
def test_reduce_near_is_exact_up_to_the_bound(p):
    top = FLOAT_EXACT - p - 1  # the largest sum the bound lets the kernel form
    m_top = top // (p - 1) ** 2
    values = [0, top, top - 1, m_top * (p - 1) ** 2, (m_top - 1) * (p - 1) ** 2]
    for k in (1, 2, 3, 1000, (top - 1) // p):
        values += [k * p - 1, k * p, k * p + 1]
    rng = np.random.default_rng(p)
    values += rng.integers(0, top, 2000).tolist()
    a = np.array(values, dtype=np.float64)
    assert a.tolist() == values  # every value is an exact float64
    _reduce_near(a, p, np.empty_like(a))
    assert all(float(r).is_integer() and -p <= r < 2 * p for r in a.tolist())
    assert [int(r) % p for r in a.tolist()] == [v % p for v in values]


def int_trace_row(rows, p):
    """-sum_x chi(sum_j row_j t^j) in int64 with Euler's criterion, one t at a time."""
    euler = powmod_vec(np.arange(p, dtype=np.int64), (p - 1) // 2, p)
    chi = np.where(euler == p - 1, -1, euler)
    out = []
    for t in range(p):
        v = np.zeros(p, dtype=np.int64)
        for j, row in enumerate(rows):
            if row is not None:
                v = (v + row * pow(t, j, p)) % p
        out.append(-int(chi[v].sum()))
    return out


def interpolate_mod_p(values, p):
    """The coefficients, low to high, of the polynomial of degree < p that
    takes values[x] at x = 0..p-1, mod p.

    For f = sum_k c_k x^k of degree < p, sum_x f(x) x^j = -c_(p-1-j) at
    0 <= j <= p - 2 (with 0^0 = 1), and c_0 = f(0).  With j = m a + b,
    0 <= b < m, every such sum is entry (a, b) of one float64 product of
    the rows (x^m)^a by the rows f(x) x^b, all residues mod p: each entry
    is a sum of p products below p^2, so below p^3 < 2^53 and exact.
    """
    assert p**3 < 1 << 53
    xs = np.arange(p, dtype=np.int64)
    v = np.asarray(values, dtype=np.int64) % p
    m = math.isqrt(p - 1) + 1
    outer = np.empty((-(-(p - 1) // m), p))  # (x^m)^a, with 0^0 = 1
    inner = np.empty((m, p))  # f(x) x^b
    row, step = np.ones(p, dtype=np.int64), powmod_vec(xs, m, p)
    for a in range(len(outer)):
        outer[a] = row
        row = row * step % p
    row = v.copy()
    for b in range(m):
        inner[b] = row
        row = row * xs % p
    sums = (outer @ inner.T).ravel()[: p - 1].astype(np.int64)  # sum_x f(x) x^j, j = m a + b
    coeffs = [int(v[0]), *(-sums[::-1] % p).tolist()]
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % p
    assert acc.tolist() == v.tolist()
    return coeffs


def coeffs_of_rows(rows, p):
    """The coefficients of degree < p that give each value row
    (:func:`interpolate_mod_p`), [] for a row that is None."""
    return [[] if row is None else interpolate_mod_p(row, p) for row in rows]


ORDERS = (1, 2, 3, 4)


def row_power_sums(row) -> list[int]:
    """sum_t a_t^r of a trace row for r = 1..4."""
    return [sum(a**r for a in row) for r in ORDERS]


def window_power_sums(coeffs, p) -> list[int]:
    """The same sums from quadratic_power_sums, on a block of the one prime p."""
    return [quadratic_power_sums(coeffs, r, [p])[0] for r in ORDERS]


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("p", [3, 5, 7, 13, 101, 1999])
def test_dense_kernel_at_maximal_entries(m, p):
    """Rows of p - 1 and of 0 / p - 1 patterns in T-degrees 0..m-1."""
    xs = np.arange(p, dtype=np.int64)
    top = np.full(p, p - 1, dtype=np.int64)

    def mask(j):
        return np.where((xs * (j + 2) + j) % 3 == 0, p - 1, 0).astype(np.int64)

    cases = {
        "all p - 1": ([top] * m, True),
        "one mask for T^j, j >= 1": ([mask(0)] + [mask(1)] * (m - 1), True),
        "a mask per row": ([mask(j) for j in range(m)], False),
    }
    ctx = PrimeCtx(p)
    for name, (rows, rank_one) in cases.items():
        dense = trace_row_vec(rows, ctx).tolist()
        corr = correlation_row(rows, ctx)
        if rank_one:
            assert corr is not None, name
        if corr is not None:
            assert dense == corr.tolist(), name
        if m <= 3:
            # first_sum_vec takes coefficients: those of degree < p that give each row
            coeffs = [interpolate_mod_p(row, p) for row in rows]
            assert first_sum_vec(coeffs, [p]) == [sum(dense)], name
            assert window_power_sums(coeffs, p) == row_power_sums(dense), name
        if p <= 101 or not rank_one:
            assert dense == int_trace_row(rows, p), name


# the windows of chi(u^2 + d) of quadratic_power_sums against the dense
# kernel and Euler's criterion

ODD_PRIMES_TO_200 = primes_in(PrimeRange(3, 200))


def random_quadratic_rows(p, seed, zero_a, zero_b, disc):
    """Rows [c, b, a] of c(x) + b(x) T + a(x) T^2 with a share of zero a and b.

    ``disc`` fixes the discriminant b^2 - 4ac where a != 0: "free" (random
    c), "zero", "square" (a nonzero square, so F splits in T), or "constant"
    (one value of d = (4ac - b^2) / (4a^2) for every x, so every x falls in
    one block of the table).  Where a = 0, c stays random, so x with
    a = b = 0 occur once both shares are positive.
    """
    rng = np.random.default_rng(seed)
    c, b, a = (rng.integers(0, p, p) for _ in range(3))
    a[rng.random(p) < zero_a] = 0
    b[rng.random(p) < zero_b] = 0
    on = a != 0
    inv4a = powmod_vec(4 * a[on] % p, p - 2, p)
    b2 = b[on] * b[on] % p
    if disc == "zero":
        c[on] = b2 * inv4a % p
    elif disc == "square":
        r = rng.integers(1, p)
        c[on] = (b2 - r * r) % p * inv4a % p
    elif disc == "constant":
        d = int(rng.integers(0, p))
        c[on] = (a[on] * d + b2 * inv4a) % p
    return [c, b if b.any() else None, a if a.any() else None]


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    zero_a=st.sampled_from([0.0, 0.2, 1.0]),
    zero_b=st.sampled_from([0.0, 0.3, 1.0]),
    disc=st.sampled_from(["free", "zero", "square", "constant"]),
)
@example(seed=1, zero_a=0.2, zero_b=0.3, disc="free")
@example(seed=2, zero_a=0.0, zero_b=0.0, disc="zero")
@example(seed=3, zero_a=0.0, zero_b=0.0, disc="square")
@example(seed=4, zero_a=0.0, zero_b=1.0, disc="constant")
@pytest.mark.parametrize("p", ODD_PRIMES_TO_200)
def test_quadratic_row_matches_dense_and_euler(p, seed, zero_a, zero_b, disc):
    rows = random_quadratic_rows(p, seed, zero_a, zero_b, disc)
    dense = trace_row_vec(rows, PrimeCtx(p)).tolist()
    assert dense == int_trace_row(rows, p)
    assert window_power_sums(coeffs_of_rows(rows, p), p) == row_power_sums(dense)


@pytest.mark.parametrize("p, disc", [(1999, "free"), (1999, "zero"), (1999, "square"),
                                     (1999, "constant"), (10007, "free"), (10007, "constant")])
def test_quadratic_row_at_larger_primes(p, disc):
    rows = random_quadratic_rows(p, p, 0.01, 0.01, disc)
    dense = trace_row_vec(rows, PrimeCtx(p)).tolist()
    assert window_power_sums(coeffs_of_rows(rows, p), p) == row_power_sums(dense)
    if p < 2000:
        assert dense == int_trace_row(rows, p)


@pytest.mark.parametrize("text, genus", [
    ("x^3 + (x - 1)*T^2 + (x - 1)*T + 2", 1),  # a = b = 0 at x = 1
    ("x^3 + x*T^2 + T + 1", 1),  # a = 0 at x = 0 with b != 0 there
    ("x^3 + T^2 + 2*x*T + x^2 + x - 1", 1),  # b^2 - 4ac = 4 (1 - x) with a = 1
    ("x^5 + (x^2 + 1)*T^2 + x^3*T + 3", 2),
])
def test_quadratic_row_matches_euler_on_families(text, genus):
    fam = fam_of(text, genus)
    for p in (3, 5, 7, 11, 13, 31):
        assert window_power_sums(fam.F.t_coeffs, p) == row_power_sums(euler_trace_row(fam.F, p)), p


def test_quadratic_row_sums_full_chunks_of_equal_windows():
    """Every x has the same a, b, c: every chunk adds QUAD_BLOCK equal windows,
    the largest int8 partial sums the kernel forms."""
    p = 1999
    ctx = PrimeCtx(p)
    for c0 in (0, 1, 2, p - 1):
        rows = [np.full(p, c0, dtype=np.int64), None, np.ones(p, dtype=np.int64)]
        want = [-p * int(ctx.chi[(t * t + c0) % p]) for t in range(p)]
        assert trace_row_vec(rows, ctx).tolist() == want
        assert window_power_sums([[c0], [], [1]], p) == row_power_sums(want)


def test_quadratic_row_memory_stays_below_the_dense_blocks():
    """All x in one block of d, with the most windows per chunk, at p ~ 4000,
    on a block of the one prime."""
    p = 4001
    coeffs = coeffs_of_rows(random_quadratic_rows(p, 0, 0.0, 0.0, "constant"), p)
    tracemalloc.start()
    try:
        quadratic_power_sums(coeffs, 2, [p])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * CHUNK * p * 8 // 3
