from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprank import _kernels
from hyprank.curves import t_coeff_rows, traces_from_rows
from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
from hyprank.moments import make_power, power_sum
from hyprank.oracles import trace_of_poly
from hyprank.polynomials import BiPoly
from hyprank.second_moment import (
    PowerFamily,
    _brute,
    bias_report,
    michel_deviation,
    second_moment_brute,
    second_moment_closed,
    second_moment_scan,
)
from support import check_gcd_reduction, check_periodicity

GRID_PRIMES = primes_in(PrimeRange(3, 31))


def test_power_family_validation():
    PowerFamily(3, 0, 1)
    PowerFamily(7, 6, 6)
    for bad in [(2, 0, 1), (3, 3, 1), (3, -1, 1), (3, 0, 3), (3, 0, -1), (1, 0, 0)]:
        with pytest.raises(ValueError):
            PowerFamily(*bad)


def test_brute_examples():
    assert second_moment_brute(PowerFamily(3, 0, 1), PrimeCtx(7)) == 84
    assert second_moment_brute(PowerFamily(3, 1, 1), PrimeCtx(5)) == 40
    assert second_moment_brute(PowerFamily(3, 1, 1), PrimeCtx(7)) == 0


def test_closed_examples():
    assert second_moment_closed(PowerFamily(3, 0, 1), PrimeCtx(13)) == 312
    assert second_moment_closed(PowerFamily(5, 2, 3), PrimeCtx(7)) is None  # gcd = 3
    # The naive pair-count formula would give 0 here; the character weight
    # kills the zero pairs, leaving exactly p - 1.  Brute force agrees.
    assert second_moment_closed(PowerFamily(5, 2, 3), PrimeCtx(11)) == 10
    assert second_moment_brute(PowerFamily(5, 2, 3), PrimeCtx(11)) == 10


def test_constant_fiber_boundary():
    # k = 0 keeps the t = 0 fiber: the family is constant and the full sum
    # differs from the k = 1 one by that fiber's squared trace.
    assert second_moment_brute(PowerFamily(3, 2, 0), PrimeCtx(5)) == 5
    assert second_moment_brute(PowerFamily(3, 2, 1), PrimeCtx(5)) == 4
    assert second_moment_closed(PowerFamily(3, 2, 0), PrimeCtx(5)) == 5
    assert second_moment_closed(PowerFamily(3, 2, 1), PrimeCtx(5)) == 4


def grid():
    for n in (3, 5, 7):
        for h in range(n):
            for k in range(n):
                yield n, h, k


def test_oracle_equivalence_small_grid():
    for n, h, k in grid():
        fam = PowerFamily(n, h, k)
        for p in GRID_PRIMES:
            ctx = PrimeCtx(p)
            closed = second_moment_closed(fam, ctx)
            if closed is None:
                assert gcd(gcd(k, n - h), p - 1) != 1
                continue
            assert second_moment_brute(fam, ctx) == closed, (n, h, k, p)


def test_oracle_equivalence_grid_to_500():
    """The small grid again, on the primes above GRID_PRIMES up to 500."""
    primes = primes_in(PrimeRange(GRID_PRIMES[-1] + 1, 500))
    for n, h, k in grid():
        fam = PowerFamily(n, h, k)
        for p in primes:
            ctx = PrimeCtx(p)
            closed = second_moment_closed(fam, ctx)
            if closed is not None:
                assert second_moment_brute(fam, ctx) == closed, (n, h, k, p)


@pytest.mark.parametrize("n, h, k", [(9, 1, 1), (9, 1, 3), (11, 3, 1), (11, 3, 3)])
def test_oracle_equivalence_nu2_three(n, h, k):
    # nu2(n - h) = 3, beyond the small grid: the closed form is nonzero
    # exactly where nu2(p - 1) > 3
    fam = PowerFamily(n, h, k)
    primes = primes_in(PrimeRange(3, 500))
    nonzero = set()
    for p in primes:
        ctx = PrimeCtx(p)
        closed = second_moment_closed(fam, ctx)
        assert closed is not None and second_moment_brute(fam, ctx) == closed, p
        if closed:
            nonzero.add(p)
    assert nonzero == {p for p in primes if p % 16 == 1}
    assert len(nonzero) == 11


def test_brute_equals_closed_on_every_prime_to_ten_thousand():
    fam = PowerFamily(5, 2, 1)  # gcd(k, n-h) = 1: every odd prime is applicable
    primes = primes_in(PrimeRange(3, 10**4))
    assert len(primes) == 1228
    for p in primes:
        ctx = PrimeCtx(p)
        assert second_moment_brute(fam, ctx) == second_moment_closed(fam, ctx), p


def test_brute_equals_power_sum_of_the_family_on_smooth_shapes():
    primes = primes_in(PrimeRange(3, 200))
    for n in (3, 5, 7):
        for h in (0, 1):
            for k in range(n):
                fam = make_power(n, h, k)
                for p in primes:
                    ctx = PrimeCtx(p)
                    assert second_moment_brute(PowerFamily(n, h, k), ctx) == power_sum(fam, 2, ctx)


def test_scan_never_takes_the_dense_kernel(monkeypatch):
    # the brute column sums over coset classes of t, so no power shape,
    # singular (h >= 2) and constant (k = 0) ones too, builds a trace row
    def kernel(rows, ctx):
        raise AssertionError("trace kernel called")

    for name in ("trace_row_vec", "correlation_row"):
        monkeypatch.setattr(_kernels, name, kernel)
    for n, h, k in [(3, 0, 0), (3, 2, 0), (5, 2, 0), (5, 4, 3), (7, 3, 0), (7, 6, 5), (5, 1, 2)]:
        fam = PowerFamily(n, h, k)
        for p, brute, closed, c2, c1 in second_moment_scan(fam, PrimeRange(3, 400)):
            assert closed is None or brute == closed, (n, h, k, p)
            assert (c2, c1) == ((None, None) if closed is None else (closed // (p * p - p), -c2))


def test_periodicity_unconditional_on_grid():
    for n, h, k in grid():
        for p in GRID_PRIMES:
            assert check_periodicity(n, h, k, PrimeCtx(p)), (n, h, k, p)


def test_periodicity_equals_full_sums_for_positive_k():
    for n, h, k in grid():
        if k == 0:
            continue
        for p in (5, 7, 11):
            ctx = PrimeCtx(p)
            lhs = second_moment_brute(PowerFamily(n, h, k), ctx)
            rhs = _brute(n, h, k + (n - h), ctx)
            assert lhs == rhs


def test_gcd_reduction():
    assert check_gcd_reduction(PowerFamily(5, 2, 3), PrimeCtx(11))
    assert check_gcd_reduction(PowerFamily(3, 0, 2), PrimeCtx(5))
    assert check_gcd_reduction(PowerFamily(3, 0, 1), PrimeCtx(7))  # identity case
    with pytest.raises(ValueError):
        check_gcd_reduction(PowerFamily(5, 2, 3), PrimeCtx(7))
    for n, h, k in grid():
        for p in GRID_PRIMES[:6]:
            if gcd(gcd(k, n - h), p - 1) != 1:
                continue
            assert check_gcd_reduction(PowerFamily(n, h, k), PrimeCtx(p)), (n, h, k, p)


def test_closed_form_divisibility_structure():
    for n, h, k in grid():
        fam = PowerFamily(n, h, k)
        for p in GRID_PRIMES:
            closed = second_moment_closed(fam, PrimeCtx(p))
            if closed is None:
                continue
            rem = closed % (p * p - p)
            if h % 2 == 1 or h == 0:
                assert rem == 0  # a clean multiple of p^2 - p
            elif k >= 1:
                assert rem == p - 1 and closed % (p - 1) == 0
            else:
                assert rem == closed == p  # constant fiber contributes its square


def test_bias_report_headline_family():
    report = bias_report(PowerFamily(3, 0, 1), PrimeRange(3, 500))
    assert len(report.rows) == len(primes_in(PrimeRange(3, 500)))  # always applicable
    for row in report.rows:
        assert row.p_a2 == row.c2 * (row.p**2 - row.p) + row.remainder
        assert row.c1 == -row.c2
        assert row.remainder == 0
        assert row.c1 <= 0
    assert report.mean_c1 is not None and -1.3 < report.mean_c1 < -0.7


def test_bias_pointwise_nonpositive_even_h():
    report = bias_report(PowerFamily(5, 2, 1), PrimeRange(3, 500))
    assert report.rows
    for row in report.rows:
        assert row.c1 <= 0
        assert row.remainder == row.p - 1


def test_bias_empty_applicable_set():
    # h odd makes n - h even, so gcd(k=0, n-h, p-1) is always even
    report = bias_report(PowerFamily(3, 1, 0), PrimeRange(3, 100))
    assert report.rows == ()
    assert report.mean_c1 is None


def test_bias_array_pass_equals_brute_to_3000():
    # the one array pass of bias_report against the class sums of _brute, for
    # every odd n <= 9 and h, k < n, at every applicable prime up to 3000
    primes = primes_in(PrimeRange(3, 3000))
    ctxs = [PrimeCtx(p) for p in primes]
    for n in (3, 5, 7, 9):
        for h in range(n):
            for k in range(n):
                fam = PowerFamily(n, h, k)
                report = bias_report(fam, PrimeRange(3, 3000))
                rows = {row.p: row for row in report.rows}
                assert list(rows) == [p for p in primes if gcd(gcd(k, n - h), p - 1) == 1]
                for ctx in ctxs:
                    row = rows.get(ctx.p)
                    if row is None:
                        assert second_moment_closed(fam, ctx) is None
                        continue
                    assert row.p_a2 == second_moment_brute(fam, ctx), (n, h, k, ctx.p)
                    assert row.p_a2 == row.c2 * (ctx.p**2 - ctx.p) + row.remainder
                    assert row.c1 == -row.c2
                if rows:
                    assert report.mean_c1 == sum(row.c1 for row in report.rows) / len(rows)


# n p_max^2 < 2^63 exactly where p_max < 1753413056 for n = 3: the first
# window stays in int64, the second and the one past 2^32 take Python ints
@pytest.mark.parametrize("lo, hi", [(1753412500, 1753413050), (1753413060, 1753413700),
                                    (2**32, 2**32 + 600)], ids=["int64", "edge", "past_2_32"])
@pytest.mark.parametrize("shape", [(3, 0, 1), (5, 2, 1), (7, 3, 1), (9, 0, 3)])
def test_bias_array_pass_matches_python_ints(lo, hi, shape):
    fam = PowerFamily(*shape)
    primes = primes_in(PrimeRange(lo, hi))
    report = bias_report(fam, PrimeRange(lo, hi))
    rows = {row.p: row for row in report.rows}
    assert rows
    for p in primes:
        closed = second_moment_closed(fam, p)  # Python ints, one prime
        row = rows.get(p)
        assert (None if row is None else row.p_a2) == closed, p
        if row is not None:
            assert all(type(v) is int for v in (row.p, row.p_a2, row.c2, row.c1, row.remainder))
            assert row.p_a2 == row.c2 * (p * p - p) + row.remainder
    assert report.mean_c1 == sum(row.c1 for row in report.rows) / len(rows)


def test_michel_deviation():
    assert michel_deviation(49, 7) == 0.0
    assert michel_deviation(0, 4) == -2.0
    # pointwise the deviation is of square-root size for these families;
    # only its prime average is small
    fam = PowerFamily(3, 0, 1)
    devs = []
    for p in primes_in(PrimeRange(3, 500)):
        ctx = PrimeCtx(p)
        pa2 = second_moment_closed(fam, ctx)
        assert abs(michel_deviation(pa2, p)) <= 2 * p**0.5
        devs.append(michel_deviation(pa2, p) / p**0.5)
    assert abs(sum(devs) / len(devs)) < 0.5


def euler_second_moment(n, h, k, p):
    """Sum over t of (sum_x (x^n + x^h t^k / p))^2, by Euler's criterion."""
    total = 0
    for t in range(p):
        s = 0
        for x in range(p):
            v = (pow(x, n, p) + pow(x, h, p) * pow(t, k, p)) % p
            if v:
                s += 1 if pow(v, (p - 1) // 2, p) == 1 else -1
        total += s * s
    return total


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(n, h, k) for n in (3, 5, 7) for h in range(n) for k in range(n)
                           if h >= 2 or k == 0]),
    p=st.sampled_from(GRID_PRIMES),
)
def test_brute_matches_euler_on_singular_and_constant_shapes(shape, p):
    assert second_moment_brute(PowerFamily(*shape), PrimeCtx(p)) == euler_second_moment(*shape, p)


def power_poly(n, h, k):
    return BiPoly.term(1, n, 0) + BiPoly.term(1, h, k)


def row_sums(traces):
    """The sums of squares of a trace row from t = 0 and from t = 1."""
    tail = sum(a * a for a in traces[1:])
    return traces[0] ** 2 + tail, tail


# the grids hold p | n (n = 3, 5, 7, 9 at p = 3, 5, 7), p | n - h and
# e = gcd(n - h, p - 1) = p - 1 (both at p = 3, 5, 7)
@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_class_sums_equal_fft_rows_to_300(n):
    for p in primes_in(PrimeRange(3, 300)):
        ctx = PrimeCtx(p)
        for h in range(n):
            for k in range(n):
                row = traces_from_rows(t_coeff_rows(power_poly(n, h, k), ctx), ctx).tolist()
                full, tail = row_sums(row)
                assert (_brute(n, h, k, ctx), _brute(n, h, k, ctx, include_t0=False)) == (
                    full, tail), (n, h, k, p)


def test_class_sums_equal_dense_rows_and_fiber_sums_to_50():
    for p in primes_in(PrimeRange(3, 50)):
        ctx = PrimeCtx(p)
        for n in (3, 5, 7, 9):
            for h in range(n):
                for k in range(n):
                    F = power_poly(n, h, k)
                    dense = _kernels.trace_row_vec(t_coeff_rows(F, ctx), ctx).tolist()
                    assert dense == [trace_of_poly(F.specialize_t(t), ctx) for t in range(p)]
                    assert (_brute(n, h, k, ctx), _brute(n, h, k, ctx, include_t0=False)) == (
                        row_sums(dense)), (n, h, k, p)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12).map(lambda m: 2 * m + 1),
    h=st.integers(0, 24),
    k=st.integers(0, 24),
    p=st.sampled_from(primes_in(PrimeRange(3, 2000))),
    include_t0=st.booleans(),
)
def test_class_sums_equal_fft_rows_hypothesis(n, h, k, p, include_t0):
    h, k = h % n, k % n
    ctx = PrimeCtx(p)
    full, tail = row_sums(traces_from_rows(t_coeff_rows(power_poly(n, h, k), ctx), ctx).tolist())
    assert _brute(n, h, k, ctx, include_t0) == (full if include_t0 else tail)
