import ast
import dataclasses
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyprank import _kernels, curves, moments
from hyprank.construction import RootData, build_family
from hyprank.curves import HyperFamily, trace_row
from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
from hyprank.moments import (
    NonGenericPrime,
    make_big_rank,
    make_linear_twist,
    make_power,
    make_shift_square,
    moment,
    moment_series,
    nagao_sum,
    power_sum,
    predict_first_moment,
    sn_witness,
)
from hyprank.polynomials import (IntPoly, degree_patterns_mod, linear_factor_counts, parse_bipoly,
                                 parse_int_poly, root_count_mod, squarefree_over_q)
from support import with_none, x_power

F7 = IntPoly.from_roots([1, 2, 3, 4, 5, 6, 7])
F3 = IntPoly.from_roots([1, 2, 3])


def test_first_moment_vanishes_for_pure_shift():
    fam = HyperFamily("xn+T", 1, parse_bipoly("x^3 + T"))
    for p in (3, 5, 7, 11, 13, 31):
        assert moment(fam, 1, PrimeCtx(p)) == 0


def test_moment_examples():
    assert moment(make_shift_square(F3), 1, PrimeCtx(11)) == -2
    assert moment(make_power(3, 0, 1), 2, PrimeCtx(7)) == 12


def test_moment_value_times_p_is_integral():
    fam = make_shift_square(F3)
    for p in (5, 7, 11):
        for r in (1, 2, 3):
            v = moment(fam, r, PrimeCtx(p))
            assert (v * p).denominator == 1


def _rank6():
    return make_big_rank(build_family(RootData(1, (1, 2, 3, 4, 5, 6))))


def test_make_big_rank_checks_the_family_once(monkeypatch):
    # build_family's HyperFamily checks F; make_big_rank reuses it unchecked
    rd = RootData(2, (-9, 4, -16, -15, -23, 13, -7, -24, 21, 1))
    checks = []
    real = curves._generic_fiber_squarefree
    monkeypatch.setattr(curves, "_generic_fiber_squarefree", lambda F: checks.append(F) or real(F))
    cr = build_family(rd)
    fam = make_big_rank(cr)
    assert len(checks) == 1
    monkeypatch.undo()
    # the family a second check would have built
    want = HyperFamily(cr.family.label, 2, cr.family.F, cr.family.bad_primes,
                       closed_form=partial(moments._big_rank_law, cr))
    primes = primes_in(PrimeRange(3, 240))[:50]
    assert (fam.label, fam.genus, fam.F, fam.bad_primes) == (want.label, 2, want.F, want.bad_primes)
    assert with_none(*fam.closed_form(primes)) == with_none(*want.closed_form(primes))
    assert None in with_none(*fam.closed_form(primes)) and cr.family.closed_form is None
    assert make_big_rank(cr, "named").label == "named" and fam.label == cr.family.label


def test_power_sum_builds_one_context_at_its_prime(monkeypatch):
    # deg_T 3: every prime takes its trace row; power_sum passes the prime of
    # the caller's context to the route of a scan, whose task builds its own
    fam = HyperFamily("cubic", 1, parse_bipoly("x^3 + x*T^3 + T + 1"))
    primes = (5, 101, 307)
    built = []
    real_ctx = moments.PrimeCtx
    monkeypatch.setattr(moments, "PrimeCtx", lambda p: built.append(p) or real_ctx(p))
    sums = [power_sum(fam, r, PrimeCtx(p)) for p in primes for r in (1, 2)]
    assert built == [5, 5, 101, 101, 307, 307] and all(type(p) is int for p in built)
    series = [moment_series(fam, r, PrimeRange(p, p)).rows[0].p_times_A for p in primes for r in (1, 2)]
    assert series == sums
    monkeypatch.undo()
    assert sums == [sum(a**r for a in trace_row(fam, PrimeCtx(p))) for p in primes for r in (1, 2)]


def test_predict_first_moment_examples():
    assert predict_first_moment(make_shift_square(F7), PrimeCtx(11)) == 66
    assert predict_first_moment(make_linear_twist(F7), PrimeCtx(11)) == 77
    cr = build_family(RootData(2, tuple(range(1, 11))))
    assert predict_first_moment(make_big_rank(cr), PrimeCtx(103)) == 1030


def test_predict_first_moment_needs_a_closed_form():
    cr = build_family(RootData(2, tuple(range(1, 11))))
    for fam in (
        make_power(3, 0, 1),
        HyperFamily("x^3 + T", 1, parse_bipoly("x^3 + T")),
        # JSON does not carry the closed form
        HyperFamily.from_json(make_big_rank(cr).to_json()),
    ):
        with pytest.raises(ValueError, match="has no closed-form predictor"):
            predict_first_moment(fam, PrimeCtx(103))


def test_predict_signals_non_generic():
    f = IntPoly.from_roots([1, 2, 8])  # 8 = 1 mod 7: double root mod 7
    with pytest.raises(NonGenericPrime):
        predict_first_moment(make_shift_square(f), PrimeCtx(7))
    g = 7 * x_power(3) + IntPoly((1, 1))
    with pytest.raises(NonGenericPrime):
        predict_first_moment(make_linear_twist(g), PrimeCtx(7))
    with pytest.raises(NonGenericPrime):
        # 36 = 1 mod 5: squared roots collide
        predict_first_moment(_rank6(), PrimeCtx(5))


@pytest.mark.parametrize(
    "make",
    [lambda: make_shift_square(F7), lambda: make_linear_twist(F7), _rank6],
    ids=["shift_square", "linear_twist", "big_rank"],
)
def test_prediction_matches_brute_force_all_generic_primes(make):
    fam = make()
    for p in primes_in(PrimeRange(3, 200)):
        if p in fam.bad_primes:
            continue
        ctx = PrimeCtx(p)
        try:
            predicted = predict_first_moment(fam, ctx)
        except NonGenericPrime:
            continue
        assert -power_sum(fam, 1, ctx) == predicted, f"p = {p}"


def test_first_moment_closed_forms_hold_to_1e4():
    rank10 = make_big_rank(build_family(RootData(2, tuple(range(1, 11)))))
    for fam in (make_shift_square(F7), make_linear_twist(F7), rank10):
        series = moment_series(fam, 1, PrimeRange(3, 10**4))
        generic = [row for row in series.rows if row.generic]
        assert len(generic) >= len(series.rows) - 5, fam.label
        bad = [row.p for row in generic if row.match is not True]
        assert bad == [], f"{fam.label}: {bad}"


@pytest.mark.parametrize("p", [1009, 10007])
def test_swapped_first_sum_equals_dense_sum(p):
    ctx = PrimeCtx(p)
    rank10 = make_big_rank(build_family(RootData(2, tuple(range(1, 11)))))
    for fam in (make_shift_square(F3), make_linear_twist(F3), rank10, make_power(5, 1, 2)):
        assert power_sum(fam, 1, ctx) == sum(trace_row(fam, ctx)), fam.label


def test_power_sum_picks_kernel_from_shape(monkeypatch):
    seen = []

    def spy(name, tag):  # the kernels see only rows; fam is the loop's current family
        real = getattr(_kernels, name)
        return lambda *a: seen.append((tag, fam.label)) or real(*a)

    monkeypatch.setattr(_kernels, "trace_row_vec", spy("trace_row_vec", "dense"))
    monkeypatch.setattr(_kernels, "correlation_row", spy("correlation_row", "fft"))
    quad = HyperFamily("quad", 1, parse_bipoly("x^3 + x*T^2 + T + 1"))
    rank_one = HyperFamily("rank_one", 1, parse_bipoly("x^3 + x*T^2 + x*T + 1"))
    cubic = HyperFamily("cubic", 1, parse_bipoly("x^3 + x*T^3 + T + 1"))
    drops = HyperFamily("drops", 1, parse_bipoly("x^3 + 7*x*T^3 + T^2 + 1"))
    for fam, r, p, want in [
        (quad, 1, 101, []),
        # deg_T <= 2 and not rank-one: the block route on this one prime
        (quad, 2, 101, []),
        (rank_one, 2, 101, [("fft", "rank_one")]),
        (cubic, 1, 101, [("dense", "cubic")]),
        # deg_T 3 over Z: the trace row, at 7 too, where deg_T = 2 mod p
        (drops, 1, 7, [("dense", "drops")]),
        (drops, 1, 11, [("dense", "drops")]),
    ]:
        seen.clear()
        ctx = PrimeCtx(p)
        value = power_sum(fam, r, ctx)
        assert seen == want, (fam.label, r, p)
        assert value == sum(a**r for a in trace_row(fam, ctx))
    seen.clear()
    with pytest.raises(ValueError, match="moment order must be >= 1"):
        power_sum(quad, 0, PrimeCtx(101))
    assert seen == []


def test_quadratic_rows_never_take_the_dense_kernel(monkeypatch):
    # the higher moments of deg_T F <= 2 families with no split over Z take
    # the blocks at every prime, rank-one mod p (mod7, at 7) or not; rows of
    # degree 3 in T reach the float64 dense kernel with no split, else the FFT
    rank6 = make_big_rank(build_family(RootData(1, tuple(range(1, 7)))))
    quad = HyperFamily("quad", 1, parse_bipoly("x^3 + x*T^2 + T + 1"))
    mod7 = HyperFamily("mod7", 1, parse_bipoly("x^3 + (x + 1)*T^2 + (x + 8)*T + 1"))
    prange = PrimeRange(3, 200)
    want = {}
    for fam in (rank6, quad, mod7):
        primes = [p for p in primes_in(prange) if p not in fam.bad_primes]
        rows = [trace_row(fam, PrimeCtx(p)) for p in primes]
        want[fam.label] = primes, {r: [sum(a**r for a in row) for row in rows] for r in (2, 3)}
    calls = []

    def spy(name):
        real = getattr(_kernels, name)
        return lambda *a: calls.append((name, a[-1].p)) or real(*a)

    for name in ("trace_row_vec", "correlation_row"):
        monkeypatch.setattr(_kernels, name, spy(name))
    for fam in (rank6, quad, mod7):
        primes, sums = want[fam.label]
        for r, values in sums.items():
            assert [power_sum(fam, r, PrimeCtx(p)) for p in primes] == values, (fam.label, r)
            series = moment_series(fam, r, prange)
            assert [row.value * row.p for row in series.rows] == values, (fam.label, r)
    assert calls == []
    cubic = HyperFamily("cubic", 1, parse_bipoly("x^3 + x*T^3 + T + 1"))
    split = HyperFamily("split", 1, parse_bipoly("x^3 + (x + 1)*T^3 + (2*x + 2)*T + 1"))
    for fam in (cubic, split):
        assert power_sum(fam, 2, PrimeCtx(101)) == sum(a * a for a in trace_row(fam, PrimeCtx(101)))
    assert calls == [("trace_row_vec", 101)] * 2 + [("correlation_row", 101)] * 2


def test_moment_invariant_under_parameter_shift():
    # replacing T by T + c permutes the fiber set at every prime
    base = HyperFamily("a", 1, parse_bipoly("x^3 + 2*x + T"))
    shifted = HyperFamily("b", 1, parse_bipoly("x^3 + 2*x + T + 9"))
    for p in (5, 7, 13):
        for r in (1, 2, 3):
            assert moment(base, r, PrimeCtx(p)) == moment(shifted, r, PrimeCtx(p))


def test_first_moment_scans_route_each_prime_by_its_deg_t():
    # deg_T 3 over Z, though 2 mod 7: every prime takes its trace row, 7
    # included, and the series keeps the order of the primes
    drops = HyperFamily("drops", 1, parse_bipoly("x^3 + 7*x*T^3 + T^2 + 1"))
    prange = PrimeRange(3, 40)
    primes = primes_in(prange)
    want = [sum(trace_row(drops, PrimeCtx(p))) for p in primes]
    assert [row.value * row.p for row in moment_series(drops, 1, prange).rows] == want
    assert nagao_sum(drops, prange) == nagao_sum(drops, prange, jobs=2)
    assert [power_sum(drops, 1, PrimeCtx(p)) for p in primes] == want


@pytest.mark.parametrize("f, pmax", [
    ("x^501 + x", 50),
    ("x^31 + x", 200),
    # odd k: D = x^40 - 4 x^21 + 6 x^20 + 9 has no integer root and lead 1
    ("x^21*T^2 + (x^20 + 3)*T + 1", 100),
])
def test_small_primes_of_a_high_degree_cofactor_count_roots_by_evaluation(f, pmax):
    """D's cofactor g (x^(d-1) + 1 for shift_square f = x (x^(d-1) + 1), D
    itself for the odd-k family F = f) is of high degree, so at p <= deg g
    the route counts roots at the p residues, and past it the Frobenius
    chain does; alpha = 1 and lead(D) is -4 or 1, so it declines no odd
    prime.  The route equals first_sum_vec and the sum of the dense trace
    row at every prime, and for shift_square both columns of the r = 1
    series are (1 - L_f) p at every generic prime, L_f the per-prime
    root_count_mod."""
    poly = None if "T" in f else parse_int_poly(f)
    fam = HyperFamily("odd k", 10, parse_bipoly(f)) if poly is None else make_shift_square(poly)
    primes = primes_in(PrimeRange(3, pmax))
    route = with_none(*_kernels.first_sum_roots(fam.F.t_coeffs, primes))
    assert None not in route
    assert route == _kernels.first_sum_vec(fam.F.t_coeffs, primes).tolist()
    rows = moment_series(fam, 1, PrimeRange(3, pmax)).rows
    for row, s in zip(rows, route, strict=True):
        ctx = PrimeCtx(row.p)
        dense = int(_kernels.trace_row_vec(curves.t_coeff_rows(fam.F, ctx), ctx).sum())
        assert row.p_times_A == s == dense, row.p
        if row.generic:
            assert row.p_times_A == row.p_times_predicted == (1 - root_count_mod(poly, ctx)) * row.p


def _first_sum_vec_primes(fam, primes) -> list[int]:
    """The primes a first-moment scan must leave to first_sum_vec: all of
    them where the weight (a, or c where a = 0 over Z) is no monomial
    alpha x^k over Z, else those that divide alpha or lead(D), D = b^2 - 4ac."""
    c, b, a = (fam.F.t_coeff(j) for j in range(3))
    weight = a if a.coeffs else c
    disc = b * b - a * c * 4 if a.coeffs else b
    terms = [v for v in weight.coeffs if v]
    if len(terms) != 1 or not disc.coeffs:
        return list(primes)
    return [p for p in primes if terms[0] % p == 0 or disc.lead % p == 0]


def test_first_moment_scans_send_first_sum_vec_only_the_fallback_primes(monkeypatch):
    """Every other prime of a deg_T <= 2 family takes the root counts of D."""
    seen = []
    real = moments.first_sum_vec
    monkeypatch.setattr(moments, "first_sum_vec", lambda t, block: seen.extend(block) or real(t, block))
    families = [
        make_shift_square(F3), make_linear_twist(F7),
        make_big_rank(build_family(RootData(1, tuple(range(1, 7))))),
        make_big_rank(build_family(RootData(2, tuple(range(1, 11))))),
        HyperFamily("odd k", 1, parse_bipoly("3*x^3*T^2 + x*T + x + 1")),
        HyperFamily("c weight", 1, parse_bipoly("(x^3 + x + 1)*T + 2*x")),
        HyperFamily("lead(D) = 9", 1, parse_bipoly("x^3 + 3*x^2*T + T^2 + 1")),
        HyperFamily("no monomial", 1, parse_bipoly("x^3 + (x^2 - 1)*T^2 + x*T + 1")),
    ]
    prange = PrimeRange(3, 2000)
    for fam in families:
        primes = [p for p in primes_in(prange) if p not in fam.bad_primes]
        seen.clear()
        series = moment_series(fam, 1, prange)
        assert seen == _first_sum_vec_primes(fam, primes), fam.label
        seen.clear()
        nagao_sum(fam, prange)
        assert seen == _first_sum_vec_primes(fam, primes), fam.label
        assert [row.p for row in series.rows] == primes
    assert seen == primes  # the last family reaches first_sum_vec at every prime


@pytest.mark.parametrize("text, declined", [
    # alpha = 11 * 13 * 17 * 23: with blocks of 5, 11 and 13 close the first
    # block, 17 opens the second, and 23 sits inside it
    ("x^3 + 55913*T^2 + x*T + 1", [11, 13, 17, 23]),
    # lead(D) = 9: the first prime of the first block alone
    ("x^3 + 3*x^2*T + T^2 + 1", [3]),
    # no monomial weight: every prime, every block whole
    ("x^3 + (x^2 - 1)*T^2 + x*T + 1", None),
    # a = 1 and lead(D) = -4: none, 3 included, at most deg D, which has no
    # integer root
    ("x^3 + T^2 + x + 1", []),
    # D = -4 (x - 1) x (x + 1) splits over Z: none
    ("x^3 + T^2 - x", []),
])
def test_first_moments_fill_declined_primes_back_across_frobenius_blocks(monkeypatch, text,
                                                                         declined):
    """With FROB_BLOCK = 5, the primes first_sum_roots declines fall inside
    and across the blocks of its root counts; first_sum_vec fills them back
    in prime order."""
    fam = HyperFamily("fam", 1, parse_bipoly(text))
    prange = PrimeRange(3, 200)
    primes = primes_in(prange)
    series = moment_series(fam, 1, prange)
    estimate = nagao_sum(fam, prange)
    seen = []
    real = moments.first_sum_vec
    monkeypatch.setattr(moments, "first_sum_vec", lambda t, block: seen.extend(block) or real(t, block))
    monkeypatch.setattr(_kernels, "FROB_BLOCK", 5)
    assert moment_series(fam, 1, prange) == series
    assert seen == (primes if declined is None else declined)
    assert nagao_sum(fam, prange) == estimate
    want = [sum(trace_row(fam, PrimeCtx(p))) for p in primes]
    assert [row.p_times_A for row in series.rows] == want


def test_higher_moment_scans_route_each_prime_by_its_shape(monkeypatch):
    # drops is deg_T 3 over Z, so every prime takes its trace row, 7 too,
    # where it is quadratic and not rank-one; rank7 is quadratic everywhere
    # and rank-one mod 7 alone, which the blocks take as well
    drops = HyperFamily("drops", 1, parse_bipoly("x^3 + 7*x*T^3 + x*T^2 + T + 1"))
    rank7 = HyperFamily("rank7", 1, parse_bipoly("x^3 + (x + 1)*T^2 + (x + 8)*T + 1"))
    prange = PrimeRange(3, 60)
    primes = primes_in(prange)
    rows = []
    row_power_sum = moments._power_sum
    monkeypatch.setattr(moments, "_power_sum",
                        lambda fam, r, p: rows.append(p) or row_power_sum(fam, r, p))
    for fam, by_row in ((drops, primes), (rank7, [])):
        for r in (2, 3):
            want = [sum(a**r for a in trace_row(fam, PrimeCtx(p))) for p in primes]
            rows.clear()
            assert [row.value * row.p for row in moment_series(fam, r, prange).rows] == want
            assert rows == by_row, (fam.label, r)  # the others took the blocks
            assert [power_sum(fam, r, PrimeCtx(p)) for p in primes] == want
    monkeypatch.undo()
    # pooled after the first item, two real worker processes give the same series
    monkeypatch.setattr(moments, "POOL_START_S", 0)
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 64)
    for fam in (drops, rank7, _rank6()):
        assert moment_series(fam, 2, prange, jobs=2) == moment_series(fam, 2, prange), fam.label


def test_power_shapes_take_the_class_sums_at_r_2(monkeypatch, capsys):
    # x^n + x^h T^k with unit coefficients takes one coset-class sum a prime
    # at r = 2 and no trace kernel; the class sums are checked against the FFT
    # and dense rows in test_second_moment
    import hashlib

    from hyprank.cli import main

    def kernel(*args):
        raise AssertionError("trace kernel called")

    for name in ("trace_row_vec", "correlation_row"):
        monkeypatch.setattr(_kernels, name, kernel)
    classes = []
    class_sum = moments._brute
    monkeypatch.setattr(moments, "_brute", lambda *args: classes.append(args[3].p) or class_sum(*args))
    prange = PrimeRange(3, 400)
    primes = primes_in(prange)
    fams = [make_power(n, h, k) for n in (3, 5, 7) for h in (0, 1) for k in range(n)]
    for fam in fams + [HyperFamily("x^5 + x*T^2", 2, parse_bipoly("x^5 + x*T^2"))]:
        classes.clear()
        assert [row.p for row in moment_series(fam, 2, prange).rows] == primes
        assert classes == primes, fam.label
    # pooled after the first prime, two worker processes give the same series
    monkeypatch.setattr(moments, "POOL_START_S", 0)
    assert moment_series(fams[-1], 2, prange, jobs=2) == moment_series(fams[-1], 2, prange)
    monkeypatch.undo()
    # a coefficient other than 1 keeps the FFT row, with the bytes recorded
    # while every power shape still took it
    rows = []
    correlation_row = _kernels.correlation_row
    monkeypatch.setattr(_kernels, "correlation_row", lambda *a: rows.append(a[-1].p) or correlation_row(*a))
    for expr, stdout_sha256 in (
        ("x^5 + 3*x*T^2", "ef77c96f56f58d2497f452f584b97aad23e3f623cf04869dd4a85e078ef5568c"),
        ("2*x^5 + x*T^2", "564cf71272f16f70171bb4526ea6b27976e009fa7e0372985720b7ba06c87066"),
    ):
        rows.clear()
        code = main(["moments", "--r", "2", "--family-expr", expr, "--genus", "2", "--pmax", "400"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256, expr
        assert rows == primes, expr


def test_scan_pools_the_rest_once_its_items_have_cost_a_pool(monkeypatch):
    """On a fake clock, each item (value, seconds) costs its seconds."""
    import concurrent.futures

    now, pools = [0.0], []

    class Pool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            pools.append((self.workers, list(items)))
            return map(fn, items)

    def task(item):
        now[0] += item[1]
        return 10 * item[0]

    def no_clock():
        raise AssertionError("a serial scan reads no clock")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(moments.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(moments, "POOL_START_S", 1.0)
    monkeypatch.setattr(moments, "perf_counter", no_clock)
    items = [(i, 0.5) for i in range(6)]
    assert moments.scan(task, items, jobs=1) == [0, 10, 20, 30, 40, 50]
    monkeypatch.setattr(moments.os, "cpu_count", lambda: 1)
    assert moments.scan(task, items, jobs=8) == [0, 10, 20, 30, 40, 50]
    monkeypatch.setattr(moments.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(moments, "perf_counter", lambda: now[0])
    # below the constant: no pool
    assert moments.scan(task, [(i, 0.25) for i in range(3)], jobs=8) == [0, 10, 20]
    assert pools == []
    # at the constant, after two items: the other four in one pool of
    # min(jobs, CPUs, items left) workers, and every result in item order
    assert moments.scan(task, items, jobs=8) == [0, 10, 20, 30, 40, 50]
    assert pools == [(3, items[2:])]
    assert moments.scan(task, items[:5], jobs=2) == [0, 10, 20, 30, 40]
    assert pools[1:] == [(2, items[2:5])]
    assert moments.scan(task, [(0, 2.0), (1, 0.5), (2, 0.5)], jobs=8) == [0, 10, 20]
    assert pools[2:] == [(2, [(1, 0.5), (2, 0.5)])]
    # at the constant with one item left: that item runs here
    pools.clear()
    assert moments.scan(task, items[:3], jobs=8) == [0, 10, 20]
    assert moments.scan(task, [], jobs=8) == []
    assert pools == []


@pytest.mark.parametrize("fam", [
    # quadratic in T and not rank-one: the blocks at every r
    HyperFamily("quad", 1, parse_bipoly("x^3 + x*T^2 + T + 1")),
    # rank-one: the blocks at r = 1, the FFT row at r >= 2
    make_linear_twist(F3),
    # deg_T 3 and not rank-one: the dense row
    HyperFamily("cubic", 1, parse_bipoly("x^3 + x*T^3 + T + 1")),
    # deg_T 3 over Z, though 2 mod 7: the dense row at every prime
    HyperFamily("drops", 1, parse_bipoly("x^3 + 7*x*T^3 + x*T^2 + T + 1")),
], ids=lambda fam: fam.label)
def test_power_sum_series_and_trace_row_agree_to_200(fam):
    """power_sum, the moment_series row and power_total of the trace row give
    the same p * A_r(p) at every prime <= 200, for r = 1..4."""
    prange = PrimeRange(3, 200)
    primes = primes_in(prange)
    rows = [trace_row(fam, PrimeCtx(p)) for p in primes]
    for r in range(1, 5):
        want = [sum(a**r for a in row) for row in rows]
        assert [_kernels.power_total(np.array(row), r) for row in rows] == want, r
        assert [row.value * row.p for row in moment_series(fam, r, prange).rows] == want, r
        assert [power_sum(fam, r, PrimeCtx(p)) for p in primes] == want, r


def test_moment_series_rows_and_flags():
    fam = make_shift_square(IntPoly.from_roots([1, 2, 9]))  # 9 = 2 mod 7: collision at 7
    series = moment_series(fam, 1, PrimeRange(3, 40))
    ps = [row.p for row in series.rows]
    assert ps == sorted(ps)
    by_p = {row.p: row for row in series.rows}
    assert by_p[7].generic is False and by_p[7].predicted is None
    for row in series.rows:
        if row.generic:
            assert row.match is True
        assert (row.value * row.p).denominator == 1


def _scan_tasks(tree) -> set:
    """Names of the functions that a module passes to ``scan``, bare or in a partial."""
    tasks = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "scan":
            task = node.args[0]
            if isinstance(task, ast.Call) and getattr(task.func, "id", None) == "partial":
                task = task.args[0]
            tasks.add(task.id)
    return tasks


def test_scan_is_the_only_prime_driver():
    # outside moments.scan nothing starts a pool, outside the per-prime tasks
    # that scan runs (and the enumeration oracles) nothing builds a per-prime
    # context, the CLI never walks primes, and second_moment leaves both to
    # _power_sums
    src = Path(moments.__file__).parent
    builders = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tasks = _scan_tasks(tree)
        owner = {}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                where = owner.get(id(node))
                if name == "ProcessPoolExecutor":
                    assert (path.name, where) == ("moments.py", "scan"), (path.name, node.lineno)
                if name == "PrimeCtx":
                    assert where in tasks, (path.name, node.lineno)
                    builders.add(where)
                if path.name == "second_moment.py":
                    assert name not in ("scan", "PrimeCtx"), node.lineno
        if path.name == "cli.py":
            imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
            assert not imported & {"PrimeCtx", "primes_in"}
    # the first-moment blocks build none
    assert builders == {"_power_sum", "_class_sum"}


def test_only_the_cli_imports_the_oracles():
    # the enumeration references stay out of every production path
    src = Path(moments.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracles" for name in names):
                importers.add(path.name)
    assert importers == {"cli.py"}


def test_importing_the_cli_loads_no_pool_machinery():
    # concurrent.futures is imported inside moments.scan, once a pool is due
    src = str(Path(moments.__file__).parents[1])
    code = ("import sys, hyprank.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_moment_series_deterministic_across_workers():
    # jobs=2 pickles each family, closed form included, to the pool
    for fam in (make_shift_square(F3), make_linear_twist(F3), _rank6()):
        s1 = moment_series(fam, 1, PrimeRange(3, 60), jobs=1)
        s2 = moment_series(fam, 1, PrimeRange(3, 60), jobs=2)
        assert s1 == s2, fam.label
        assert any(row.predicted is not None for row in s1.rows), fam.label


def test_nagao_rank_zero_family_is_identically_zero():
    fam = HyperFamily("xn+T", 1, parse_bipoly("x^3 + T"))
    est = nagao_sum(fam, PrimeRange(3, 1000))
    assert est.s_theta == 0.0 and est.s_pi == 0.0
    assert est.n_primes == len(primes_in(PrimeRange(3, 1000)))


def test_nagao_empty_range_and_skip_bookkeeping():
    fam = HyperFamily("xn+T", 1, parse_bipoly("x^3 + T"), frozenset({11}))
    est = nagao_sum(fam, PrimeRange(14, 16))
    assert est.s_theta == 0.0 and est.s_pi == 0.0 and est.n_primes == 0
    est2 = nagao_sum(fam, PrimeRange(3, 20, frozenset({5})))
    assert est2.skipped == (5, 11)
    assert est2.n_primes == len(primes_in(PrimeRange(3, 20))) - 2


def test_nagao_predictor_path_matches_brute_for_split_family():
    fam = make_shift_square(F3)
    prange = PrimeRange(3, 300)
    brute = nagao_sum(fam, prange)
    pred = nagao_sum(fam, prange, predicted=True)
    assert brute.s_theta == pred.s_theta
    assert brute.s_pi == pred.s_pi == 2.0


def test_nagao_normalizations_close_at_scale():
    est = nagao_sum(make_shift_square(F3), PrimeRange(3, 100000), predicted=True)
    assert abs(est.s_theta - est.s_pi) / est.s_pi < 0.02


def test_first_moment_stages_take_no_primes():
    """Every stage of the first-moment pipeline returns empty arrays for no
    primes, and a range whose every prime is skipped or bad gives an empty
    series and an empty Nagao sum, both ways."""
    f = parse_int_poly("3*x^3 + x + 1")
    for stage in (_kernels.prime_array, partial(_kernels.root_counts, f.coeffs),
                  partial(_kernels.root_counts, f.coeffs, signed=True),
                  partial(_kernels.frobenius_gcd_degrees, f.coeffs, depth=2),
                  partial(_kernels.first_sum_vec, [[1, 0, 0, 1], [], [1]])):
        got = stage([])
        assert isinstance(got, np.ndarray) and got.size == 0 and got.dtype == np.int64, stage
    cr = build_family(RootData(1, (1, 2, 3, 4, 5, 6)))
    families = [make_shift_square(f), make_linear_twist(f), make_big_rank(cr)]
    for fam in families:
        parts = [*_kernels.first_sum_roots(fam.F.t_coeffs, []), *fam.closed_form([]),
                 *linear_factor_counts(f, []), moments._power_sums(fam.F, 1, [], 1)]
        assert [(type(v), v.size) for v in parts] == [(np.ndarray, 0)] * len(parts), fam.label
    assert degree_patterns_mod(f, []) == []
    bad = sorted(p for p in cr.family.bad_primes if p < 20)
    prange = PrimeRange(3, 19, frozenset(primes_in(PrimeRange(3, 19))) - set(bad))
    assert bad and set(primes_in(PrimeRange(3, 19))) - set(bad)
    fam = families[2]
    assert moment_series(fam, 1, prange).rows == ()
    for predicted in (False, True):
        est = nagao_sum(fam, prange, predicted=predicted)
        assert (est.s_theta, est.s_pi, est.n_primes) == (0.0, 0.0, 0)
        assert est.skipped == tuple(primes_in(PrimeRange(3, 19)))


def _nagao_reference(fam, prange, predicted):
    """s_theta, s_pi, n and the skipped primes from the moment_series rows,
    in Python floats added one prime at a time: s / p and (s / p) log p with
    s = -p A_1(p), brute or predicted, over the generic rows when predicted."""
    theta = pi_sum = 0.0
    used = []
    for row in moment_series(fam, 1, prange).rows:
        if predicted and not row.generic:
            continue
        s = -(row.p_times_predicted if predicted else row.p_times_A)
        theta += (s / row.p) * math.log(row.p)
        pi_sum += s / row.p
        used.append(row.p)
    skipped = tuple(p for p in primes_in(PrimeRange(prange.lo, prange.hi)) if p not in used)
    n = len(used)
    return theta / prange.hi, pi_sum / n if n else 0.0, n, skipped


@settings(max_examples=25, deadline=None)
@given(degree=st.sampled_from([3, 5]), coeffs=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
       lead=st.sampled_from([1, -1, 3, 5, -7, 15]), twist=st.booleans(),
       lo=st.integers(3, 40), pmax=st.integers(40, 1500),
       skip=st.sets(st.sampled_from(primes_in(PrimeRange(3, 60))), max_size=4),
       bad=st.sets(st.sampled_from(primes_in(PrimeRange(3, 60))), max_size=3))
# p = 3 divides the lead, 5 and 17 are skipped, 7 is bad
@example(degree=3, coeffs=[1, 1, 0, 0, 0], lead=3, twist=False, lo=3, pmax=3000, skip={5, 17},
         bad={7})
@example(degree=3, coeffs=[1, 1, 0, 0, 0], lead=3, twist=True, lo=3, pmax=3000, skip={5, 17},
         bad={7})
# np.log(p) differs from math.log(p) in the last bit at p = 285343
@example(degree=3, coeffs=[-6, 11, -6, 0, 0], lead=1, twist=False, lo=285343, pmax=285343,
         skip=set(), bad=set())
def test_nagao_sums_equal_the_sequential_float_reference(degree, coeffs, lead, twist, lo, pmax,
                                                         skip, bad):
    """Brute and predicted, s_theta and s_pi equal bit for bit the sums of
    the rows in Python floats, over families with skipped, bad and
    non-generic primes."""
    f = IntPoly(coeffs[:degree] + [lead])
    assume(squarefree_over_q(f))
    try:
        fam = (make_linear_twist if twist else make_shift_square)(f)
    except ValueError:
        assume(False)
    fam = dataclasses.replace(fam, bad_primes=frozenset(bad))
    prange = PrimeRange(lo, pmax, frozenset(skip))
    for predicted in (False, True):
        est = nagao_sum(fam, prange, predicted=predicted)
        want = _nagao_reference(fam, prange, predicted)
        assert (est.s_theta, est.s_pi, est.n_primes, est.skipped) == want, predicted


def test_sn_witness_s7_polynomial():
    f = 2 * F7 + IntPoly.const(1)
    report = sn_witness(f, PrimeRange(3, 3600))
    assert report.found
    assert report.witnesses == {
        "n_cycle": 7,
        "n_minus_1_cycle": 19,
        "transposition": 3583,
    }


def test_sn_witness_small_degree_inconclusive():
    rep = sn_witness(parse_int_poly("x^2+1"), PrimeRange(3, 100))
    assert not rep.found
    assert set(rep.census) == {(2,), (1, 1)}
    rep2 = sn_witness(IntPoly.from_roots([1, 2]), PrimeRange(3, 50))
    assert not rep2.found
    assert (1, 1) in rep2.census


def test_sn_witness_rejects_non_squarefree():
    with pytest.raises(ValueError):
        sn_witness(IntPoly.from_roots([1, 1, 2]), PrimeRange(3, 50))


def test_make_power_rejects_singular_shapes():
    make_power(3, 1, 1)
    with pytest.raises(ValueError):
        make_power(5, 2, 1)  # x^2 divides the generic fiber
