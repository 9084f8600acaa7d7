import ast
from pathlib import Path

import numpy as np
import pytest

from hyprank import _kernels, finite_field, oracles
from hyprank.finite_field import (
    PrimeCtx,
    PrimeRange,
    chi_tables,
    double_sum_S,
    is_prime,
    legendre,
    nu2,
    power_pair_count,
    primes_in,
    primitive_root,
    quadratic_char_sum,
)
from hyprank.oracles import double_sum_brute, power_pair_count_brute, quadratic_sum_table
from support import gcd_representative

SMALL_PRIMES = primes_in(PrimeRange(3, 200))


def euler_criterion(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_chi_tables_lay_the_prime_tables_end_to_end():
    primes = primes_in(PrimeRange(3, 120))
    flat = chi_tables(primes)
    assert flat.dtype == np.int8
    assert flat.tolist() == [euler_criterion(a, p) for p in primes for a in range(p)]
    assert flat.tolist() == np.concatenate([PrimeCtx(p).chi for p in primes]).tolist()
    with pytest.raises(ValueError, match="too large"):
        chi_tables([3, 67108879])


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(999983)
    assert not is_prime(1) and not is_prime(0) and not is_prime(561)
    # 64-bit scale
    assert is_prime(18446744073709551557)
    assert not is_prime(18446744073709551555)


def _is_prime_twelve_bases(n):
    """Miller-Rabin on the first twelve primes, after trial division by them."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_agrees_with_twelve_bases():
    # below 4759123141 is_prime uses the bases (2, 7, 61): 7 and 61 are
    # prime though they fail their own base; the rest are strong
    # pseudoprimes to small base sets, 4759123141 the first for (2, 7, 61)
    assert [n for n in range(300000) if is_prime(n) != _is_prime_twelve_bases(n)] == []
    for n in (25326001, 3215031751, 4759123141, 1122004669633, 2152302898747,
              3474749660383, 341550071728321):
        assert is_prime(n) == _is_prime_twelve_bases(n) is False, n
    assert is_prime(7) and is_prime(61)


def test_ctx_rejects_two_and_composites():
    with pytest.raises(ValueError):
        PrimeCtx(2)
    with pytest.raises(ValueError):
        PrimeCtx(91)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_qr_table_popcount_and_symmetry(p):
    chi = PrimeCtx(p).chi
    assert len(chi) == p and chi[0] == 0
    assert int((chi == 1).sum()) == (p - 1) // 2
    sign = -1 if p % 4 == 3 else 1  # (-1/p)
    for a in range(1, p):
        assert chi[a] == sign * chi[p - a]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_legendre_agrees_with_euler(p):
    ctx = PrimeCtx(p)
    for a in range(p):
        assert legendre(a, ctx) == euler_criterion(a, p)


def test_legendre_examples():
    ctx = PrimeCtx(7)
    assert legendre(0, ctx) == 0
    assert legendre(4, ctx) == 1
    assert legendre(3, ctx) == -1  # squares mod 7 are {1, 2, 4}
    assert legendre(-4, ctx) == legendre(3, ctx)


def test_legendre_multiplicative():
    for p in primes_in(PrimeRange(3, 100)):
        ctx = PrimeCtx(p)
        vals = [legendre(a, ctx) for a in range(p)]
        for a in range(1, p):
            for b in range(1, p):
                assert vals[a * b % p] == vals[a] * vals[b]


def test_legendre_euler_fallback_above_table_limit():
    # Large prime: no table, falls back to Euler's criterion.
    p = 2305843009213693951  # 2^61 - 1
    ctx = PrimeCtx(p)
    assert legendre(4, ctx) == 1
    assert legendre(p - 1, ctx) == 1 if p % 4 == 1 else -1


def test_quadratic_char_sum_examples():
    assert quadratic_char_sum(1, 0, 0, PrimeCtx(7)) == 6
    assert quadratic_char_sum(1, 0, 1, PrimeCtx(7)) == -1
    assert quadratic_char_sum(2, 0, 0, PrimeCtx(5)) == -4
    assert quadratic_char_sum(0, 3, 1, PrimeCtx(7)) == 0  # linear case


@pytest.mark.parametrize("p", [67108879, 2305843009213693951])  # first prime above 2^26, 2^61 - 1
def test_quadratic_char_sum_above_table_limit(p):
    ctx = PrimeCtx(p)
    assert quadratic_char_sum(1, 0, 0, ctx) == p - 1
    assert quadratic_char_sum(1, 0, 1, ctx) == -1
    assert quadratic_char_sum(0, 3, 1, ctx) == 0
    assert ctx._chi is None  # Euler's criterion, no character table


def _calls(node) -> set:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            names.add(n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
    return names


def test_quadratic_law_has_one_owner():
    # the scalar closed form, the O(p) first-moment kernel and the lemma
    # suites all evaluate finite_field.quadratic_sums; the suites check that
    # law itself rather than a scalar copy of it
    def tree(mod):
        return ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))

    def function(mod, name):
        return next(n for n in tree(mod).body if isinstance(n, ast.FunctionDef) and n.name == name)

    oracle_calls = _calls(tree(oracles))
    assert "quadratic_char_sum" not in oracle_calls
    assert "quadratic_sums" in oracle_calls
    assert "quadratic_sums" in _calls(function(_kernels, "first_sum_vec"))
    assert "quadratic_sums" in _calls(function(finite_field, "quadratic_char_sum"))


def test_quadratic_char_sum_rejects_double_zero():
    with pytest.raises(ValueError):
        quadratic_char_sum(0, 0, 3, PrimeCtx(7))
    with pytest.raises(ValueError):
        quadratic_char_sum(7, 14, 3, PrimeCtx(7))


@pytest.mark.parametrize("p", primes_in(PrimeRange(3, 50)))
def test_quadratic_char_sum_vs_enumeration(p):
    ctx = PrimeCtx(p)
    table = quadratic_sum_table(ctx)
    for a in range(p):
        for b in range(p):
            if a == 0 and b == 0:
                continue
            for c in range(p):
                assert quadratic_char_sum(a, b, c, ctx) == table[a, b, c]


@pytest.mark.parametrize("p", primes_in(PrimeRange(3, 13)))
def test_quadratic_sum_table_vs_loop_over_t(p):
    want = [[[sum(euler_criterion(a * t * t + b * t + c, p) for t in range(p))
              for c in range(p)] for b in range(p)] for a in range(p)]
    assert quadratic_sum_table(PrimeCtx(p)).tolist() == want


def test_power_pair_count_examples():
    assert power_pair_count(3, PrimeCtx(7)) == 19
    assert power_pair_count(1, PrimeCtx(5)) == 5
    assert power_pair_count(2, PrimeCtx(5)) == 9
    with pytest.raises(ValueError):
        power_pair_count(0, PrimeCtx(5))


def test_double_sum_examples():
    assert double_sum_S(2, PrimeCtx(5)) == 8
    assert double_sum_S(2, PrimeCtx(7)) == 0
    assert double_sum_S(4, PrimeCtx(13)) == 0
    with pytest.raises(ValueError):
        double_sum_S(3, PrimeCtx(5))
    with pytest.raises(ValueError):
        double_sum_S(0, PrimeCtx(5))


@pytest.mark.parametrize("p", primes_in(PrimeRange(3, 100)))
def test_pair_sums_vs_enumeration(p):
    ctx = PrimeCtx(p)
    for n in range(1, 13):
        assert power_pair_count(n, ctx) == power_pair_count_brute(n, ctx)
    for h in range(2, 13, 2):
        assert double_sum_S(h, ctx) == double_sum_brute(h, ctx)


def test_gcd_representative():
    assert gcd_representative(2, 3, 3) == 2
    assert gcd_representative(3, 3, 2) == 5  # 3 shares a factor with 3; 3+2 works
    assert gcd_representative(0, 4, 1) == 1
    with pytest.raises(ValueError):
        gcd_representative(2, 4, 2)


def test_nu2():
    assert nu2(8) == 3
    assert nu2(12) == 2
    assert nu2(1) == 0
    with pytest.raises(ValueError):
        nu2(0)


def test_primes_in():
    assert primes_in(PrimeRange(3, 20)) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in(PrimeRange(14, 16)) == []
    assert primes_in(PrimeRange(3, 20, frozenset({7}))) == [3, 5, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        PrimeRange(10, 5)


def test_primes_in_segmented():
    # Windows away from the origin, some straddling 2^31, agree with
    # Miller-Rabin, with and without a skip set.
    skip = frozenset({9001, 9199, 2**31 - 1, 2**31 + 11, 4})
    for lo, hi in [(9000, 9200), (2**31 - 400, 2**31 + 400), (2**31 - 1, 2**31 - 1)]:
        expected = [p for p in range(lo, hi + 1) if is_prime(p)]
        assert primes_in(PrimeRange(lo, hi)) == expected
        got = primes_in(PrimeRange(lo, hi, skip))
        assert got == [p for p in expected if p not in skip] and len(got) < len(expected)
    assert 100003 in primes_in(PrimeRange(100000, 100100))


@pytest.mark.parametrize("lo", [2**50, 2**61 - 1500, 2**64 - 3001])
def test_primes_in_narrow_window_at_huge_bound(lo):
    # the base sieve stops at 2^16 and is_prime confirms the survivors
    assert primes_in(PrimeRange(lo, lo + 3000)) == [n for n in range(lo, lo + 3001) if is_prime(n)]


def test_primes_in_refuses_past_two_to_the_sixty_four():
    with pytest.raises(ValueError, match="2\\^64"):
        primes_in(PrimeRange(2**64 - 10, 2**64))


def test_primes_in_every_small_window():
    for lo in range(0, 120):
        for hi in range(lo, 120):
            want = [p for p in range(lo, hi + 1) if p > 2 and is_prime(p)]
            assert primes_in(PrimeRange(lo, hi)) == want, (lo, hi)


def test_primitive_root_is_the_least_generator_to_ten_thousand():
    # the powers r^j, j < p - 1, listed by doubling, must be every unit; then
    # c = r^j generates exactly when gcd(j, p - 1) = 1, and no c < r may
    for p in primes_in(PrimeRange(3, 10**4)):
        r = primitive_root(p)
        pows = np.ones(1, dtype=np.int64)
        while len(pows) < p - 1:
            pows = np.concatenate((pows, pows * pow(r, len(pows), p) % p))
        pows = pows[: p - 1]
        assert np.bincount(pows, minlength=p)[1:].min() == 1, p
        log = np.zeros(p, dtype=np.int64)
        log[pows] = np.arange(p - 1)
        assert np.flatnonzero(np.gcd(log[1:], p - 1) == 1)[0] + 1 == r, p
    assert [primitive_root(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 191, 409)] == [
        2, 2, 3, 2, 2, 3, 2, 5, 19, 21]


# the four largest primes below 2^26, and 2^18 3^5 + 1 and 2^15 3^7 + 1 on either
# side of it, whose p - 1 has only the prime factors 2 and 3
@pytest.mark.parametrize("p", [67108859, 67108837, 67108819, 67108777, 63700993, 71663617])
def test_primitive_root_near_two_to_the_twenty_six(p):
    assert is_prime(p)
    qs = {q for q in range(2, 10**4) if (p - 1) % q == 0 and is_prime(q)}
    rest = p - 1
    for q in qs:
        while rest % q == 0:
            rest //= q
    if rest > 1:
        assert is_prime(rest)
        qs.add(rest)
    r = primitive_root(p)
    assert pow(r, p - 1, p) == 1
    assert all(pow(r, (p - 1) // q, p) != 1 for q in qs)
    assert all(any(pow(c, (p - 1) // q, p) == 1 for q in qs) for c in range(2, r))


@pytest.mark.parametrize("bad", [2, 1, 9, 91, 2**26])
def test_primitive_root_refuses_non_odd_primes(bad):
    with pytest.raises(ValueError):
        primitive_root(bad)
