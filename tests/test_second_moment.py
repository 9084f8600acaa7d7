from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
from hyprank.second_moment import (
    PowerFamily,
    bias_report,
    check_gcd_reduction,
    check_periodicity,
    michel_deviation,
    second_moment_brute,
    second_moment_closed,
)

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


def test_brute_equals_closed_on_every_prime_to_ten_thousand():
    fam = PowerFamily(5, 2, 1)  # gcd(k, n-h) = 1: every odd prime is applicable
    primes = primes_in(PrimeRange(3, 10**4))
    assert len(primes) == 1228
    for p in primes:
        ctx = PrimeCtx(p)
        assert second_moment_brute(fam, ctx) == second_moment_closed(fam, ctx), p


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
            rhs = _brute_any(n, h, k + (n - h), ctx)
            assert lhs == rhs


def _brute_any(n, h, k, ctx):
    from hyprank.second_moment import _brute

    return _brute(n, h, k, ctx)


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
