"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import os
import time
from math import gcd

import hyprank
from hyprank.construction import RootData, build_family
from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
from hyprank.moments import (
    NonGenericPrime,
    make_big_rank,
    make_linear_twist,
    make_shift_square,
    nagao_sum,
    power_sum,
    predict_first_moment,
)
from hyprank.oracles import run_lemma_suites
from hyprank.polynomials import IntPoly, root_count_mod
from hyprank.second_moment import (
    PowerFamily,
    bias_report,
    second_moment_brute,
    second_moment_closed,
)
from support import check_periodicity

F7 = IntPoly.from_roots([1, 2, 3, 4, 5, 6, 7])
JOBS = min(2, os.cpu_count() or 1)

PAPER_R_VALUES = [
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
]


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_lemma_oracle_suite():
    start = time.monotonic()
    results = run_lemma_suites(pmax=60, nmax=12)
    elapsed = time.monotonic() - start
    for suite in results:
        assert suite.passed, f"{suite.name} failed at {suite.first_failure}"
    assert elapsed < 30.0
    total = sum(s.cases for s in results)
    _report(1, f"4 lemma suites exact on all odd p <= 60 ({total} cases, {elapsed:.1f}s)")


def test_criterion_2_first_moment_closed_forms():
    shift = make_shift_square(F7)
    twist = make_linear_twist(F7)
    primes = [p for p in primes_in(PrimeRange(11, 500))]
    assert len(primes) >= 90
    for p in primes:
        ctx = PrimeCtx(p)
        L = root_count_mod(F7, ctx)
        # all primes in range are generic for this split f
        assert predict_first_moment(shift, ctx) == (L - 1) * p
        assert predict_first_moment(twist, ctx) == L * p
        assert -power_sum(shift, 1, ctx) == (L - 1) * p, f"shift_square p={p}"
        assert -power_sum(twist, 1, ctx) == L * p, f"linear_twist p={p}"
    _report(2, f"-p*A1 = (L_f-1)p and L_f*p exactly at all {len(primes)} primes in [11,500]")


def test_criterion_3_published_expansion_coefficients():
    cr = build_family(RootData(2, tuple(range(1, 11))))
    assert list(cr.R[:10]) == PAPER_R_VALUES
    assert cr.R[10] == 1
    _report(3, "all ten expansion coefficients R_0..R_9 match the published values")


def test_criterion_4_construction_identities():
    checked = []
    for genus in (1, 2, 3):
        rd = RootData(genus, tuple(range(1, 4 * genus + 3)))
        cr = build_family(rd)
        n = 2 * genus + 1
        # (a) prescribed roots of the quarter discriminant
        for rho in rd.rho:
            assert cr.D.evaluate(rho * rho) == 0
        # (b) q^2 + x^n h = scale * product, exactly
        assert cr.q * cr.q + cr.h.shift(n) == cr.scale * IntPoly.from_roots(
            [r * r for r in rd.rho]
        )
        # (c) all 4g+2 sections satisfy the curve equation in T
        assert len(cr.points) == 4 * genus + 2
        for x, y in cr.points:
            assert y * y == cr.F.specialize_x(x)
        # (d) first-moment law at the first 10 generic primes
        fam = make_big_rank(cr)
        hits = 0
        for p in primes_in(PrimeRange(3, 10000)):
            ctx = PrimeCtx(p)
            try:
                predicted = predict_first_moment(fam, ctx)
            except NonGenericPrime:
                continue
            assert predicted == (4 * genus + 2) * p
            assert -power_sum(cr.family, 1, ctx) == predicted, f"g={genus} p={p}"
            hits += 1
            if hits == 10:
                break
        assert hits == 10
        checked.append(genus)
    _report(4, f"discriminant roots, defining identity, sections, and first-moment "
               f"law verified for genus {checked}")


def test_criterion_5_second_moment_theorem_and_periodicity():
    primes = primes_in(PrimeRange(3, 60))
    applicable = 0
    for n in (3, 5, 7):
        for h in range(n):
            for k in range(n):
                fam = PowerFamily(n, h, k)
                for p in primes:
                    ctx = PrimeCtx(p)
                    closed = second_moment_closed(fam, ctx)
                    if closed is not None:
                        assert gcd(gcd(k, n - h), p - 1) == 1
                        assert second_moment_brute(fam, ctx) == closed, (n, h, k, p)
                        applicable += 1
                    assert check_periodicity(n, h, k, ctx), (n, h, k, p)
    _report(5, f"brute force equals closed form on all {applicable} applicable "
               f"(n,h,k,p) cases and periodicity holds on the whole grid")


def test_criterion_6_bias():
    headline = bias_report(PowerFamily(3, 0, 1), PrimeRange(3, 10**4))
    assert headline.mean_c1 is not None
    assert -1.15 <= headline.mean_c1 <= -0.85
    even = bias_report(PowerFamily(5, 2, 1), PrimeRange(3, 10**4))
    assert even.rows
    assert all(row.c1 <= 0 for row in even.rows)
    _report(6, f"mean_c1 = {headline.mean_c1:.4f} in [-1.15,-0.85] for (3,0,1); "
               f"c1 <= 0 pointwise for (5,2,1) over {len(even.rows)} primes")


def test_criterion_7_nagao_convergence():
    fam = make_shift_square(IntPoly.from_roots([1, 2, 3]))
    predicted = nagao_sum(fam, PrimeRange(3, 10**5), predicted=True)
    assert 1.94 <= predicted.s_theta <= 2.06, predicted.s_theta
    brute = nagao_sum(fam, PrimeRange(3, 3000), jobs=JOBS)
    assert abs(brute.s_theta - 2.0) <= 0.2, brute.s_theta
    _report(7, f"s_theta = {predicted.s_theta:.4f} at P=1e5 (predicted series); "
               f"brute-force s_theta = {brute.s_theta:.4f} at P=3000")


def test_criterion_8_rank_claims_out_of_scope():
    # Jacobian group arithmetic, canonical heights, and regulators are not
    # implemented; the rank statements themselves are covered indirectly by
    # the curve data of criteria 3 and 4.
    for name in ("jacobian", "canonical_height", "regulator", "mordell_weil"):
        assert not hasattr(hyprank, name)
    cr = build_family(RootData(2, tuple(range(1, 11))))
    assert len(cr.points) == 10  # the ten candidate generators exist as data
    _report(8, "rank/regulator computations intentionally absent; curve data for "
               "the rank-10 example is emitted and checked by criteria 3-4")
