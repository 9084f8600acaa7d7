import ast
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hyprank import _kernels, oracles
from hyprank.cli import main, parse_roots

F3 = "(x-1)*(x-2)*(x-3)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_moments_csv(capsys):
    code, out = run(
        capsys, "moments", "--family", "builtin:shift_square", "--f", F3,
        "--r", "1", "--pmax", "50",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,r,p_times_A_numer,predicted,generic_flag"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["3", "5", "7", "11", "13", "17", "19", "23",
                                    "29", "31", "37", "41", "43", "47"]
    for r in rows:
        assert r[2] == r[3]  # brute equals prediction, split family
        assert r[4] == "1"


def test_moments_empty_range_ok(capsys):
    code, out = run(
        capsys, "moments", "--family", "builtin:shift_square", "--f", F3,
        "--r", "1", "--pmax", "2",
    )
    assert code == 0
    assert out.strip() == "p,r,p_times_A_numer,predicted,generic_flag"


@pytest.mark.parametrize("bounds", [("--pmax", "50"), ("--pmin", "10", "--pmax", "5")])
def test_moments_rejects_order_below_one(capsys, bounds):
    code = main(["moments", "--family", "builtin:shift_square", "--f", F3, "--r", "0", *bounds])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: moment order must be >= 1\n"


def test_moments_refuses_orders_whose_values_may_not_print(capsys, monkeypatch):
    # |p A_r(p)| <= p^(r + 1), so at --pmax 40 every value prints while
    # 40^(r + 1) < 10^limit; past that the scan is refused before it starts
    import sys

    from hyprank import cli
    from hyprank.finite_field import PrimeRange, primes_in

    limit = 1000
    top = next(r for r in range(1, limit) if 40 ** (r + 2) >= 10**limit)  # 623
    argv = ["moments", "--family", "builtin:shift_square", "--f", F3, "--pmax", "40"]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, out = run(capsys, *argv, "--r", str(top))
        assert code == 0 and len(out.splitlines()) == 1 + len(primes_in(PrimeRange(3, 40)))

        def no_scan(*args, **kwargs):
            raise AssertionError("the scan started")

        monkeypatch.setattr(cli, "moment_series", no_scan)
        for r in (top + 1, 4_000_000):
            code = main([*argv, "--r", str(r)])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", r
            assert f"more than the {limit} digits" in captured.err, r
    finally:
        sys.set_int_max_str_digits(old)


def test_moments_malformed_polynomial(capsys):
    code, _ = run(
        capsys, "moments", "--family", "builtin:shift_square", "--f", "(x-1",
        "--r", "1", "--pmax", "20",
    )
    assert code == 2


def test_moments_requires_one_source(capsys):
    code, _ = run(capsys, "moments", "--r", "1", "--pmax", "20")
    assert code == 2
    code, _ = run(
        capsys, "moments", "--family", "builtin:power:3,0,1",
        "--family-expr", "x^3+T", "--pmax", "20",
    )
    assert code == 2


def test_moments_json_round_trip(capsys):
    code, out = run(
        capsys, "moments", "--family", "builtin:power:3,0,1", "--r", "2",
        "--pmax", "11", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["r"] == 2
    row7 = [r for r in obj["rows"] if r["p"] == 7][0]
    assert row7["p_times_A"] == "84"
    assert row7["predicted"] is None


def test_moments_deterministic_across_jobs(capsys):
    argv = ["moments", "--family", "builtin:shift_square", "--f", F3,
            "--r", "1", "--pmax", "60"]
    code1, out1 = run(capsys, *argv, "--jobs", "1")
    code2, out2 = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "60"],
    ["sn-witness", "--f", "x^3 + x + 1", "--pmax", "100", "--format", "json"],
])
def test_scans_deterministic_across_jobs(capsys, argv):
    code1 = main([*argv, "--jobs", "1"])
    first = capsys.readouterr()
    code2 = main([*argv, "--jobs", "2"])
    assert code1 == code2 == 0
    assert capsys.readouterr() == first


def test_nagao_json_and_range_error(capsys):
    code, out = run(
        capsys, "nagao", "--family", "builtin:shift_square", "--f", F3,
        "--pmax", "200", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"P", "s_theta", "s_pi", "n_primes", "skipped"}
    assert obj["s_pi"] == 2.0
    code, _ = run(
        capsys, "nagao", "--family", "builtin:shift_square", "--f", F3, "--pmax", "2",
    )
    assert code == 3
    code, _ = run(
        capsys, "nagao", "--family", "builtin:shift_square", "--f", F3,
        "--pmin", "100", "--pmax", "50",
    )
    assert code == 3


def test_nagao_predicted_requires_closed_form(tmp_path, capsys):
    fam_file = tmp_path / "fam.json"
    assert run(capsys, "construct", "--genus", "1", "--roots", "1..6",
               "--out", str(fam_file))[0] == 0
    for source, label in (
        (("--family", "builtin:power:3,0,1"), "power(3,0,1)"),
        (("--family-expr", "x^3 + T", "--genus", "1"), "x^3 + T"),
        (("--family", str(fam_file)), "rank6_genus1"),  # JSON carries no closed form
    ):
        code = main(["nagao", *source, "--pmax", "100", "--predicted"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: family '{label}' has no closed-form predictor\n"


def test_nagao_predicted_converges_at_desk_scale(capsys):
    code, out = run(
        capsys, "nagao", "--family", "builtin:shift_square", "--f", F3,
        "--pmax", "10000", "--predicted", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["s_theta"] - 2.0) / 2.0 < 0.05
    assert obj["s_pi"] == 2.0


def test_construct_reproduces_published_values(capsys):
    code, out = run(capsys, "construct", "--genus", "2", "--roots", "1..10",
                    "--emit-points")
    assert code == 0
    obj = json.loads(out)
    block = obj["construction"]
    assert block["R"][0] == "13168189440000"
    assert block["R"][9] == "-385"
    assert [pt["x"] for pt in block["points"]] == [
        "1", "4", "9", "16", "25", "36", "49", "64", "81", "100"
    ]
    assert obj["genus"] == 2


def test_construct_genus_one_and_errors(capsys):
    code, out = run(capsys, "construct", "--genus", "1", "--roots", "1..6")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["construction"]["q"]) == 4  # degree 3
    code, _ = run(capsys, "construct", "--genus", "1", "--roots", "1,1,2,3,4,5")
    assert code == 2
    code, _ = run(capsys, "construct", "--genus", "1", "--roots", "1..6",
                  "--format", "csv")
    assert code == 3


def test_construct_with_a_root_too_large_to_factor_ends_fast(capsys):
    # trial division stops at 2^16, and a cofactor past it must be a prime
    # below 2^64, so a root near 10^16 ends at once, refused or not
    roots = "1,2,3,4,5,10000000000000061"
    for argv in (["construct", "--genus", "1", "--roots", roots],
                 ["nagao", "--family", "builtin:big_rank", "--genus", "1", "--roots", roots,
                  "--pmax", "100"]):
        start = time.perf_counter()
        code = main(argv)
        assert code in (0, 2) and time.perf_counter() - start < 2, argv
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["sn-witness", "--f", "x^3+x+1"],
    ["nagao", "--family", "builtin:shift_square", "--f", F3, "--predicted"],
    ["second-moment", "--n", "5", "--h", "1", "--k", "2", "--bias"],
], ids=["sn-witness", "nagao --predicted", "second-moment --bias"])
def test_scan_past_the_memory_exits_3(capsys, argv):
    # the sieve window of 10^15 flags lies past any address space, so numpy
    # refuses it at once with a MemoryError
    code = main(argv + ["--pmax", str(10**15)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sparse_split_power_of_x_ends_fast(capsys):
    # D = -4 x^d splits over Z, so no prime should cost more than O(1) once
    # the root 0 is divided out
    argv = ["nagao", "--family", "builtin:shift_square", "--pmax", "50", "--f"]
    code, small = run(capsys, *argv, "x^2001")
    assert code == 0 and small.splitlines()[1] == "50,0.0,0.0,14,"
    start = time.perf_counter()
    code, big = run(capsys, *argv, "x^20001")
    assert (code, big) == (0, small) and time.perf_counter() - start < 5


def test_construct_monic_flag(capsys):
    code, out = run(capsys, "construct", "--genus", "1", "--roots", "1..6", "--monic")
    assert code == 0
    obj = json.loads(out)
    terms = obj["monic_F"]["terms"]
    assert ["1", 3, 0] in terms  # monic leading term x^3


def test_construct_monic_refuses_a_model_too_long_to_print(capsys):
    # at genus 5 the monic model has coefficients past Python's default 4300 digits
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no digit limit before Python 3.10.7")
    argv = ["construct", "--genus", "5", "--roots", "1..22", "--monic"]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "--monic" in captured.err and "sys.get_int_max_str_digits()" in captured.err
        assert "4300 digits" in captured.err
        sys.set_int_max_str_digits(0)  # no limit: the same model prints
        code, out = run(capsys, *argv)
        assert code == 0 and ["1", 11, 0] in json.loads(out)["monic_F"]["terms"]
    finally:
        sys.set_int_max_str_digits(old)


def test_leading_negative_root_in_equals_form(capsys):
    # "--roots -3,..." reads as an option; the help names the = form
    assert run(capsys, "construct", "--genus", "1", "--roots=-3,5,7,11,2,-13")[0] == 0
    assert run(capsys, "nagao", "--family", "builtin:big_rank", "--genus", "1",
               "--roots=-3,5,7,11,2,-13", "--pmax", "100")[0] == 0


def test_family_file_round_trip(tmp_path, capsys):
    out_file = tmp_path / "fam.json"
    code, _ = run(capsys, "construct", "--genus", "1", "--roots", "1..6",
                  "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "moments", "--family", str(out_file),
                    "--r", "1", "--pmax", "120")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert lines, "bad primes should not swallow the whole range"
    for line in lines:
        p, _, pa, _, _ = line.split(",")
        assert int(pa) == -6 * int(p)  # rank-6 family law


@pytest.mark.parametrize("family, message", [
    ("builtin:power:3,1,-1", "negative exponent in x^1*T^-1"),
    ({"label": "neg", "genus": 1,
      "F": {"terms": [["1", 3, 0], ["1", 3, 1], ["1", 1, 0], ["1", -1, 1]]}},
     "bad polynomial JSON: negative exponent in x^-1*T^1"),
    ([1, 2], "family JSON must be an object, not list"),
    ({"label": "x", "genus": 1, "F": {"terms": [["1", 3, 0], ["1", 0, 1]]}, "bad_primes": 5},
     "bad family JSON: 'int' object is not iterable"),
    ({"label": "x", "genus": 1, "F": {"terms": [["1", 3, 0], ["1", 0, 1]]}, "bad_primes": "57"},
     "bad family JSON: bad_primes must be a list of integers, not '57'"),
    ({"label": "x", "genus": 1}, "bad family JSON: missing key 'F'"),
], ids=["negative_exponent", "json_negative_exponent", "json_not_object", "json_bad_primes",
        "json_bad_primes_string", "json_missing_F"])
def test_malformed_family_input_exits_2(tmp_path, capsys, family, message):
    if not isinstance(family, str):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family))
        family = str(path)
    code = main(["moments", "--family", family, "--r", "1", "--pmax", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("family, message", [
    ({"label": "float", "genus": 1.9,
      "F": {"terms": [[1.5, 3, 0], ["1", 0.9, 2], [True, 1, 1]]}},
     "bad family JSON: 1.9 is not an integer"),
    ({"label": "x", "genus": True, "F": {"terms": [["1", 3, 0], ["1", 0, 1]]}},
     "bad family JSON: True is not an integer"),
    ({"label": "x", "genus": 1, "F": {"terms": [[1.5, 3, 0], ["1", 0, 1]]}},
     "bad polynomial JSON: 1.5 is not an integer"),
    ({"label": "x", "genus": 1, "F": {"terms": [["1", 3, 0], [True, 0, 1]]}},
     "bad polynomial JSON: True is not an integer"),
    ({"label": "x", "genus": 1, "F": {"terms": [["1", 3.0, 0], ["1", 0, 1]]}},
     "bad polynomial JSON: 3.0 is not an integer"),
    ({"label": "x", "genus": 1, "F": {"terms": [["1", 3, 0], ["1", 0, False]]}},
     "bad polynomial JSON: False is not an integer"),
], ids=["issue_file", "bool_genus", "float_coefficient", "bool_coefficient", "float_exponent",
        "bool_exponent"])
def test_family_json_refuses_floats_and_booleans(tmp_path, capsys, family, message):
    # int() read 1.9 as 1 and true as 1, so such a file ran as another family
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family))
    code = main(["moments", "--family", str(path), "--r", "1", "--pmax", "20"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"
    # integers, and coefficients as the decimal strings to_json writes, are read
    family["genus"] = 1
    family["F"] = {"terms": [["1", 3, 0], [1, 1, 1], ["-2", 0, 2]]}
    path.write_text(json.dumps(family))
    assert run(capsys, "moments", "--family", str(path), "--r", "1", "--pmax", "20")[0] == 0


def test_family_file_skip_set(tmp_path, capsys):
    path = tmp_path / "fam.json"
    F = {"terms": [["1", 3, 0], ["1", 1, 0], ["1", 0, 1]]}
    path.write_text(json.dumps({"label": "x", "genus": 1, "F": F, "bad_primes": [57, 7]}))
    code, out = run(capsys, "moments", "--family", str(path), "--r", "1", "--pmax", "20")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == [
        "3", "5", "11", "13", "17", "19"]


def test_family_expr(capsys):
    code, out = run(capsys, "moments", "--family-expr", "x^3 + T", "--genus", "1",
                    "--r", "1", "--pmax", "30")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[2] == "0"


@pytest.mark.parametrize("expr, message", [
    ("(" * 400 + "x^3 + T" + ")" * 400, "parentheses nested deeper than 100 at position 100"),
    ("(x+T+1)^150", "power ^150 before position 11 could expand to 11476 terms of 301 bits; "
     "the limit is 4096 terms and 1048576 bits in all"),
    ("*".join(["(x+T+1)"] * 150), "product before position 511 could expand to 4225 terms of "
     "103 bits; the limit is 4096 terms and 1048576 bits in all"),
], ids=["deep_nesting", "large_power", "long_product"])
def test_family_expr_refuses_input_too_large(capsys, expr, message):
    t0 = time.perf_counter()
    code = main(["moments", "--family-expr", expr, "--genus", "1", "--r", "1", "--pmax", "30"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert elapsed < 1.0


def test_second_moment_csv_and_bias(capsys):
    code, out = run(capsys, "second-moment", "--n", "3", "--h", "0", "--k", "1",
                    "--pmax", "60")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,pA2_brute,pA2_closed,applicable,c2,c1"
    for line in lines[1:]:
        p, brute, closed, app, c2, c1 = line.split(",")
        assert app == "1" and brute == closed
    code, out = run(capsys, "second-moment", "--n", "3", "--h", "0", "--k", "1",
                    "--pmax", "100", "--bias", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mean_c1"] < 0


@pytest.mark.parametrize("h, k", [(0, 1), (10**9 - 4, 10**9 - 1)])
def test_second_moment_huge_n_runs_at_once(capsys, h, k):
    # x^n was once evaluated by Horner over an n-long coefficient list at every
    # prime: --n 2000001 --h 0 --k 1 --pmax 20 took 51 s and 78 MB
    from hyprank.curves import traces
    from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
    from hyprank.polynomials import BiPoly

    n = 10**9 + 1
    t0 = time.perf_counter()
    code, out = run(capsys, "second-moment", "--n", str(n), "--h", str(h), "--k", str(k),
                    "--pmax", "60")
    assert code == 0 and time.perf_counter() - t0 < 1.0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == primes_in(PrimeRange(3, 60))
    assert any(int(r[1]) for r in rows)

    def reduced(m, p):  # the same power function on all of F_p, x = 0 too
        return (m - 1) % (p - 1) + 1 if m else 0

    for p, brute, closed, app, _, _ in rows:
        p = int(p)
        ctx = PrimeCtx(p)
        F = BiPoly.term(1, reduced(n, p), 0) + BiPoly.term(1, reduced(h, p), reduced(k, p))
        assert int(brute) == sum(a * a for a in traces(F, ctx)), p
        assert app == "0" or closed == brute, p


def test_second_moment_invalid_params(capsys):
    code, _ = run(capsys, "second-moment", "--n", "4", "--h", "0", "--k", "1",
                  "--pmax", "20")
    assert code == 2


def test_second_moment_constant_exponent(capsys):
    # k = 0: the family is constant in t; applicable rows still match brute force
    code, out = run(capsys, "second-moment", "--n", "3", "--h", "2", "--k", "0",
                    "--pmax", "40")
    assert code == 0
    saw_applicable = False
    for line in out.strip().splitlines()[1:]:
        p, brute, closed, app, _, _ = line.split(",")
        if app == "1":
            saw_applicable = True
            assert brute == closed == p  # closed form degenerates to p here
    assert saw_applicable


def test_bias_report_bad_remainder_is_internal_failure(capsys, monkeypatch):
    import hyprank.second_moment as sm

    # one full (p^2 - p) plus a remainder of p + 1, which no shape produces,
    # injected through the array form that the bias pass calls once
    calls = []

    def wrong(fam, p):
        calls.append(p)
        return p * p + 1

    monkeypatch.setattr(sm, "second_moment_closed", wrong)
    code, _ = run(capsys, "second-moment", "--n", "3", "--h", "0", "--k", "1",
                  "--pmax", "20", "--bias")
    assert code == 4
    assert len(calls) == 1 and calls[0].tolist() == [3, 5, 7, 11, 13, 17, 19]


# sha256 of the --bias stdout, and the stderr, over the primes of
# [2^32, 2^32 + 600], where p^2 passes int64 and the array pass takes Python
# ints; pinned from the per-prime closed form that it replaced
BIAS_PAST_2_32 = [
    ("5", "2", "1", "csv", "3a02db0798656fdfad956eb5d3e6156dd717f62485984dfcd9dce7f57ec92ffd",
     "mean_c1 = -0.8823529411764706 over 34 applicable primes\n"),
    ("7", "3", "1", "csv", "c3edfee01562077d7066ef79cedb5f209f8b16aac88c42495be245292eab5afd",
     "mean_c1 = -0.8235294117647058 over 34 applicable primes\n"),
    ("9", "0", "3", "csv", "64af3e2d5abe42e96c2a694337bacf1a1839ae8d4b676459f120aac7a1fd9451",
     "mean_c1 = 0.0 over 19 applicable primes\n"),
    ("5", "2", "1", "json", "c15d898905a674b3685cdb21277c750b1ccbbc3430653dfca1e3d9eff1d050ff", ""),
    ("7", "3", "1", "json", "4564e99f7d488d87aa4c9209412e30e96f4832d9b1547f5f20976d4c14ea9871", ""),
    ("9", "0", "3", "json", "5c5dde34bff11655ed0f0e89076b568b4132d5db68504dae613c7f941afc8b92", ""),
]


@pytest.mark.parametrize("n, h, k, fmt, stdout_sha256, stderr", BIAS_PAST_2_32,
                         ids=[f"{n}_{h}_{k}_{fmt}" for n, h, k, fmt, *_ in BIAS_PAST_2_32])
def test_bias_output_past_two_to_the_32(capsys, n, h, k, fmt, stdout_sha256, stderr):
    code = main(["second-moment", "--n", n, "--h", h, "--k", k, "--pmin", str(2**32),
                 "--pmax", str(2**32 + 600), "--bias", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256
    assert captured.err == stderr


@pytest.mark.parametrize("shift", [0.3, 1.0], ids=["off_integer", "nonzero_sum"])
def test_fft_rounding_guard_is_internal_failure(capsys, monkeypatch, shift):
    import numpy as np

    from hyprank.finite_field import InternalCheckError, PrimeCtx
    from hyprank.moments import make_shift_square, power_sum
    from hyprank.polynomials import parse_int_poly

    # shift_square at r = 2 takes the FFT row; the power shapes' class sums need none
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + shift)
    with pytest.raises(InternalCheckError):
        power_sum(make_shift_square(parse_int_poly(F3)), 2, PrimeCtx(101))
    code = main(["moments", "--family", "builtin:shift_square", "--f", F3, "--r", "2", "--pmax", "20"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("internal verification failure: FFT correlation at p = 3")


@pytest.mark.parametrize("argv", [
    ["moments", "--family", "builtin:shift_square", "--f", F3],
    ["moments", "--family", "builtin:linear_twist", "--f", F3],
    ["moments", "--family", "builtin:big_rank", "--genus", "1", "--roots", "1..6"],
    ["moments", "--family", "builtin:power:3,0,1"],
    ["moments", "--family-expr", "x^3 + T", "--genus", "1"],
    ["moments", "--family", "FILE"],
    ["construct", "--genus", "1", "--roots", "1..6"],
], ids=["shift_square", "linear_twist", "big_rank", "power", "family_expr", "file",
        "construct"])
def test_empty_label_is_kept(tmp_path, capsys, argv):
    if "FILE" in argv:
        path = tmp_path / "fam.json"  # carries the default label rank6_genus1
        assert run(capsys, "construct", "--genus", "1", "--roots", "1..6",
                   "--out", str(path))[0] == 0
        argv = [str(path) if a == "FILE" else a for a in argv]
    if argv[0] == "moments":
        argv += ["--pmax", "7", "--format", "json"]
    code, out = run(capsys, *argv, "--label", "")
    assert code == 0
    assert json.loads(out)["label"] == ""


def test_dense_scans_refuse_primes_above_table_limit(capsys):
    # 67108859 < 2^26 < 67108879: the whole scan is refused before any work
    rng = ["--pmin", "67108859", "--pmax", "67108900"]
    for argv in (
        ["moments", "--family", "builtin:shift_square", "--f", F3, *rng],
        ["nagao", "--family", "builtin:shift_square", "--f", F3, *rng],
        ["second-moment", "--n", "3", "--h", "0", "--k", "1", *rng],
    ):
        assert run(capsys, *argv)[0] == 2


def test_dense_scans_refuse_a_range_before_sieving_it(capsys):
    # to 10^8 the sieve alone took seconds and hundreds of MB before the refusal
    import tracemalloc

    from hyprank.finite_field import PrimeRange, primes_in

    for argv, skip in (
        (["nagao", "--family", "builtin:shift_square", "--f", F3], ()),
        (["nagao", "--family", "builtin:shift_square", "--f", F3], (99999989, 99999971)),
        (["moments", "--family", "builtin:shift_square", "--f", F3], (99999989,)),
        (["second-moment", "--n", "3", "--h", "0", "--k", "1"], ()),
    ):
        # the prime the refusal names is the largest the scan would count
        top = max(primes_in(PrimeRange(10**8 - 1000, 10**8, frozenset(skip))))
        argv += ["--pmax", str(10**8), "--skip", ",".join(map(str, skip))]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(argv)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == f"error: p = {top} too large for the dense kernel (limit 2^26)\n"
        assert elapsed < 0.5 and peak < 10 << 20, (argv, elapsed, peak)


def test_closed_form_scans_run_above_table_limit(capsys):
    # no length-p table is built, so primes past 2^26 are fine here
    rng = ["--pmin", "67108850", "--pmax", "67108900"]
    code, out = run(capsys, "sn-witness", "--f", "x^3 + x + 1", *rng)
    assert code == 0 and "2 primes scanned" in out
    code, out = run(capsys, "nagao", "--family", "builtin:shift_square", "--f", F3,
                    "--predicted", *rng)
    assert code == 0 and out.splitlines()[1].split(",")[3] == "2"
    code, out = run(capsys, "second-moment", "--n", "3", "--h", "0", "--k", "1", "--bias", *rng)
    assert code == 0 and len(out.splitlines()) == 3


def test_jobs_must_be_positive(capsys):
    for sub in (
        ["moments", "--family", "builtin:shift_square", "--f", F3, "--pmax", "20"],
        ["nagao", "--family", "builtin:shift_square", "--f", F3, "--pmax", "20"],
        ["second-moment", "--n", "3", "--h", "0", "--k", "1", "--pmax", "20"],
        ["sn-witness", "--f", "x^3 + x + 1", "--pmax", "20"],
    ):
        assert run(capsys, *sub, "--jobs", "0")[0] == 3
        assert run(capsys, *sub, "--jobs", "-4")[0] == 3
        assert run(capsys, *sub, "--jobs", "1")[0] == 0


def test_jobs_capped_without_starting_processes(capsys, monkeypatch):
    import concurrent.futures
    import math

    import hyprank._kernels as _kernels
    import hyprank.moments as moments

    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(moments.os, "cpu_count", lambda: 4)
    # POOL_START_S = 0 hands the rest to a pool after the first item; math.inf never does
    monkeypatch.setattr(moments, "POOL_START_S", 0)
    fft = ["moments", "--family", "builtin:shift_square", "--f", F3, "--r", "2", "--pmax", "60"]
    r1 = ["moments", "--family-expr", "x^3 + (x^2 - 1)*T^2 + x*T + 1", "--genus", "1",
          "--pmax", "60"]
    for argv in (
        r1,  # 438 cells: one block, which runs here
        # closed-form scans run in this process
        ["second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "60", "--bias"],
        ["sn-witness", "--f", "x^3 + x + 1", "--pmax", "60"],
        ["nagao", "--family", "builtin:shift_square", "--f", F3, "--pmax", "60", "--predicted"],
    ):
        code, serial = run(capsys, *argv, "--jobs", "1")
        code, out = run(capsys, *argv, "--jobs", "100000")
        assert code == 0 and out == serial and seen == [], argv
    # 23, 29, 31 and 37 in range: the first runs here, the pool takes three
    code, _ = run(capsys, *fft, "--pmin", "20", "--pmax", "40", "--jobs", "100000")
    assert code == 0 and seen == [3]
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 64)
    for argv in (
        fft,  # one FFT trace row per prime
        r1,  # a first moment whose weight a is no monomial runs in blocks of primes
        # a prime of deg_T F >= 3 that is not rank-one takes a dense trace row
        ["moments", "--family-expr", "x^3 + x*T^3 + T + 1", "--genus", "1", "--r", "2",
         "--pmax", "60"],
        # higher moments of F quadratic in T run in blocks of BLOCK_CELLS cells
        ["moments", "--family-expr", "x^3 + x*T^2 + T + 1", "--genus", "1", "--r", "2",
         "--pmax", "60"],
        # second-moment's O(p) class sums, one prime each
        ["second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "60"],
    ):
        seen.clear()
        monkeypatch.setattr(moments, "POOL_START_S", 0)
        code, serial = run(capsys, *argv)
        assert code == 0 and seen == [], argv
        code, out = run(capsys, *argv, "--jobs", "100000")
        assert code == 0 and out == serial and seen == [4], argv  # min(jobs, cpu_count, items)
        code, out = run(capsys, *argv, "--jobs", "2")
        assert code == 0 and out == serial and seen == [4, 2], argv
        monkeypatch.setattr(moments, "POOL_START_S", math.inf)
        code, out = run(capsys, *argv, "--jobs", "100000")
        assert code == 0 and out == serial and seen == [4, 2], argv


def test_parser_is_built_once_and_reused(capsys):
    from hyprank import cli

    assert cli._parser() is cli._parser()
    ok = ["moments", "--family", "builtin:shift_square", "--f", F3, "--r", "2", "--pmax", "40",
          "--format", "json"]
    bad = [
        (["moments", "--family", "builtin:nope", "--pmax", "40"], 2),
        (["moments", "--family", "builtin:shift_square", "--f", "x^3 +", "--pmax", "40"], 2),
        (["moments", "--family", "builtin:shift_square", "--f", F3, "--pmax", "40", "--jobs", "0"], 3),
        (["nagao", "--family", "builtin:shift_square", "--f", F3, "--pmax", "2"], 3),
    ]
    first = run(capsys, *ok)
    labelled = run(capsys, *ok, "--label", "L")
    assert json.loads(labelled[1])["label"] == "L"
    for _ in range(2):
        # no option of one call leaks into the next
        assert run(capsys, *ok) == first
        assert run(capsys, *ok, "--label", "L") == labelled
        assert [run(capsys, *argv)[0] for argv, _ in bad] == [code for _, code in bad]
        with pytest.raises(SystemExit) as exc:  # argparse's own refusal
            main(["moments", "--r", "two"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_lazy_parser_matches_the_full_parser(capsys, monkeypatch):
    from hyprank import cli

    full = cli._parser()
    assert cli._parser("nagao") is cli._parser("nagao") is not full
    assert list(cli._parser("nagao")._subparsers._group_actions[0].choices) == ["nagao"]
    cases = [[], ["-h"], ["bogus"], ["bogus", "--pmax", "3"], ["--pmax", "3", "nagao"]]
    cases += [[command, "-h"] for command in cli._SUBCOMMANDS]
    cases += [
        # a required option missing
        ["moments", "--family", "builtin:big_rank"],
        ["nagao", "--pmax"],
        ["construct", "--genus", "2"],
        ["second-moment", "--n", "3", "--h", "0", "--pmax", "9"],
        ["sn-witness", "--pmax", "9"],
        # a bad value
        ["moments", "--r", "two", "--pmax", "10"],
        ["verify-lemmas", "--format", "csv"],
        # trailing arguments no parser knows
        ["nagao", "--family", "x", "--pmax", "10", "extra"],
        ["moments", "--family", "x", "--pmax", "10", "--nope", "1"],
        ["construct", "--genus", "1", "--roots", "1..6", "extra", "more"],
        ["verify-lemmas", "--pmax", "7", "--", "x"],
    ]

    def outcome(argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    for argv in cases:
        lazy = outcome(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", lambda command=None: full)
            assert outcome(argv) == lazy, argv


def test_one_context_per_prime(capsys, monkeypatch):
    from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in

    built = []
    init = PrimeCtx.__init__

    def counting_init(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(PrimeCtx, "__init__", counting_init)
    primes = primes_in(PrimeRange(3, 100))
    assert len(primes) == 24
    for argv, contexts in (
        # first moments run in blocks of primes, and closed-form scans in one
        # batched pass: no per-prime context; a rank-one F takes one per prime
        # at r >= 2
        (["moments", "--family", "builtin:linear_twist", "--f", F3, "--r", "1"], []),
        (["moments", "--family", "builtin:linear_twist", "--f", F3, "--r", "2"], primes),
        # so do the higher moments of F quadratic in T that is not rank-one
        (["moments", "--family-expr", "x^3 + x*T^2 + T + 1", "--genus", "1", "--r", "2"], []),
        (["nagao", "--family", "builtin:linear_twist", "--f", F3, "--predicted"], []),
        (["second-moment", "--n", "5", "--h", "2", "--k", "1"], primes),
        # the bias report is one array pass over the primes
        (["second-moment", "--n", "5", "--h", "2", "--k", "1", "--bias"], []),
        (["sn-witness", "--f", "x^3 + x + 1"], []),
    ):
        built.clear()
        assert run(capsys, *argv, "--pmax", "100")[0] == 0
        assert built == contexts, argv


def test_verify_lemmas(capsys):
    code, out = run(capsys, "verify-lemmas", "--pmax", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)
    code, out = run(capsys, "verify-lemmas", "--pmax", "3", "--format", "json")
    assert code == 0
    assert all(suite["passed"] for suite in json.loads(out))


@pytest.mark.parametrize("argv, err", [
    (("--pmax", "2"), "error: empty prime range for the lemma suites\n"),
    (("--pmax", "-5"), "error: empty prime range for the lemma suites\n"),
    (("--nmax", "1"), "error: --nmax must be >= 2, got 1\n"),
    (("--nmax", "0"), "error: --nmax must be >= 2, got 0\n"),
    (("--nmax", "-3"), "error: --nmax must be >= 2, got -3\n"),
    (("--nmax", "201"), "error: --nmax must be <= 200 for the lemma suites "
                        "(x^n depends only on n mod p - 1), got 201\n"),
    (("--nmax", "1000000000"), "error: --nmax must be <= 200 for the lemma suites "
                               "(x^n depends only on n mod p - 1), got 1000000000\n"),
])
def test_verify_lemmas_rejects_empty_checks(capsys, argv, err):
    code = main(["verify-lemmas", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", err)


def test_lemma_suites_catch_a_wrong_law(capsys, monkeypatch):
    quadratic_sums = oracles.quadratic_sums
    power_pair_count = oracles.power_pair_count
    double_sum_S = oracles.double_sum_S

    def wrong_quadratic(a, b, c, chi_a, p):
        off = (p == 7) & (np.asarray(a) == 2) & (np.asarray(b) == 3) & (np.asarray(c) == 4)
        return quadratic_sums(a, b, c, chi_a, p) + off

    monkeypatch.setattr(oracles, "quadratic_sums", wrong_quadratic)
    monkeypatch.setattr(oracles, "power_pair_count",
                        lambda n, ctx: power_pair_count(n, ctx) + ((n, ctx.p) == (5, 11)))
    monkeypatch.setattr(oracles, "double_sum_S",
                        lambda h, ctx: double_sum_S(h, ctx) + ((h, ctx.p) == (4, 13)))
    results = {r.name: r for r in oracles.run_lemma_suites(20)}
    assert not results["quadratic-char-sum"].passed
    assert results["quadratic-char-sum"].first_failure == "(a,b,c,p)=(2,3,4,7)"
    assert results["linear-sum-vanishing"].passed
    assert results["power-pair-count"].first_failure == "(n,p)=(5,11)"
    assert results["paired-power-char-sum"].first_failure == "(h,p)=(4,13)"

    code, out = run(capsys, "verify-lemmas", "--pmax", "20")
    assert code == 4
    # cases count every prime, the ones after the first failure included
    assert out.splitlines()[0] == "FAIL at (a,b,c,p)=(2,3,4,7) quadratic-char-sum (7 primes, 15720 cases)"


def test_verify_lemmas_refuses_large_pmax_before_allocating(capsys):
    import time
    import tracemalloc

    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(["verify-lemmas", "--pmax", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20
    assert (code, captured.out) == (3, "")
    assert captured.err == ("error: --pmax must be <= 200 for the lemma suites "
                            "(their enumeration grows as p^4), got 100000\n")


def test_sn_witness_cli(capsys):
    code, out = run(capsys, "sn-witness", "--f", "x^2+1", "--pmax", "100",
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "INCONCLUSIVE"
    assert set(obj["census"]) == {"2", "1+1"}
    code, _ = run(capsys, "sn-witness", "--f", "(x-1)*(x-1)", "--pmax", "50")
    assert code == 2
    code = main(["sn-witness", "--f", "5", "--pmax", "20"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: polynomial must have degree >= 1, got 5\n"


@pytest.mark.parametrize("argv", [
    ["construct", "--genus", "1"],
    ["moments", "--family", "builtin:big_rank", "--genus", "1", "--pmax", "100"],
])
def test_root_range_of_the_wrong_length_is_refused_before_it_is_built(capsys, argv):
    # the range was built before it was counted: about 100 MB for these 2 * 10^6 roots
    import tracemalloc

    tracemalloc.start()
    try:
        code = main([*argv, "--roots", "1..2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: need exactly 6 roots, got 2000000\n"
    assert peak < 1 << 20, peak
    # past sys.maxsize roots len() of the range overflowed into a traceback
    code = main([*argv, "--roots", f"1..{10**20}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: root range '1..{10**20}' has more roots than a list can hold\n"


def test_construct_refuses_integers_too_long_to_print(capsys):
    # at genus 13 the family has integers past Python's default 4300 digits,
    # which str() refused only once the JSON was being formed; genus 12 prints
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no digit limit before Python 3.10.7")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["construct", "--genus", "13", "--roots", "1..54"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("error: construct at genus 13: the family has an integer of more "
                                "than the 4300 digits Python prints "
                                "(sys.get_int_max_str_digits())\n")
        code, out = run(capsys, "construct", "--genus", "12", "--roots", "1..50")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "04566b61bfc1dd6d1bb77d33e7bc678b81c37ed7ba9edea5c935391fe94596ab")
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_roots():
    assert parse_roots("1..6") == [1, 2, 3, 4, 5, 6]
    assert parse_roots("1,-2, 3") == [1, -2, 3]
    with pytest.raises(ValueError):
        parse_roots("6..1")


def test_construct_wrong_root_count(capsys):
    code, _ = run(capsys, "construct", "--genus", "2", "--roots", "1..6")
    assert code == 2


def test_moments_rejects_singular_power_family(capsys):
    # x^2 divides x^5 + x^2 T^k: not a valid curve family for moment scans
    code, _ = run(capsys, "moments", "--family", "builtin:power:5,2,1",
                  "--r", "1", "--pmax", "20")
    assert code == 2


def test_skip_flag(capsys):
    code, out = run(
        capsys, "moments", "--family", "builtin:shift_square", "--f", F3,
        "--r", "1", "--pmax", "30", "--skip", "5,11",
    )
    assert code == 0
    ps = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert ps == ["3", "7", "13", "17", "19", "23", "29"]


def test_output_byte_identical_across_runs(capsys):
    argv = ["second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "60",
            "--format", "json"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


# sha256 of stdout, exit code and stderr of small fixed invocations of every
# subcommand, recorded from the CLI before the family-type refactor; the one
# intended change is the label-based message for --predicted without a closed
# form.
GOLDEN = [
    (("moments", "--family", "builtin:shift_square", "--f", F3, "--r", "1", "--pmax", "50"),
     "924af2b8a83ed765d63bcbd130d4a430d08f44ac1a9cf73d6ffaa46d0105cc83", 0, ""),
    (("moments", "--family", "builtin:linear_twist", "--f", F3, "--r", "2", "--pmax", "30",
      "--format", "json"),
     "2b5b0a0953cbe133978260a2e8436e2f119988265c4d66db1d72bab3265508b1", 0, ""),
    (("moments", "--family", "builtin:big_rank", "--genus", "1", "--roots", "1..6",
      "--r", "1", "--pmax", "80"),
     "987c76be2534e4d1954152c3145bc9f745ae95b2e47bbb9770477a7d4a2587b4", 0, ""),
    (("moments", "--family", "builtin:power:3,0,1", "--r", "2", "--pmax", "11", "--format", "json"),
     "fd31ceee58d02723547ac512fddbd047ac21cf0faa0ff367bf208616e6196688", 0, ""),
    (("moments", "--family-expr", "x^3 + x*T^2 + T + 1", "--genus", "1", "--r", "1", "--pmax", "40"),
     "892328d00d7f3a16c8eb2cbb0aa8d8ded5ebca3521724cdab59ca8ea15561c7c", 0, ""),
    (("nagao", "--family", "builtin:shift_square", "--f", F3, "--pmax", "200"),
     "d7c637c1748635f2c61a1ec5ff158dc5f4d684c1282dcfcca48513937e796c44", 0, ""),
    (("nagao", "--family", "builtin:linear_twist", "--f", F3, "--pmax", "2000", "--predicted",
      "--format", "json"),
     "e0778a4e6846fcbd7ca97462dffa11b3ae783dcaa7a9f43e2920a48c9dd1df53", 0, ""),
    (("nagao", "--family", "builtin:big_rank", "--genus", "1", "--roots", "1..6",
      "--pmax", "1000", "--predicted"),
     "0aeff0751ebf9c7e2e6d6f5be8af12cade4a4fd0bfdc7ecb0b3e9e9290dfd2a1", 0, ""),
    (("nagao", "--family", "builtin:power:3,0,1", "--pmax", "100", "--predicted"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
     "error: family 'power(3,0,1)' has no closed-form predictor\n"),
    (("construct", "--genus", "1", "--roots", "1..6", "--emit-points", "--monic"),
     "88d5872ab1a314fdb0091a2e62f9e9d7787c23242aa1191b729055d731897f3a", 0, ""),
    (("second-moment", "--n", "3", "--h", "0", "--k", "1", "--pmax", "40"),
     "d0226b2595497e029f7c42d958391fc2a5732b83886a46898976691ef4d7567f", 0,
     "michel deviation (pA2 - p^2)/p^1.5: min=-5.3852 max=5.7540\n"),
    (("second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "60", "--bias"),
     "8dfd59a8f34089b0850e7cd84dbb5f87cb8411fd35f1d584509808f3122869f4", 0,
     "mean_c1 = -0.75 over 16 applicable primes\n"),
    # recorded while the k = 0 rows were still merged by hand in second_moment
    (("second-moment", "--n", "5", "--h", "2", "--k", "0", "--pmax", "60"),
     "2c86eda25e936f6719fb7be3ce63d4e474d894f7db1c1c07735f51265f351574", 0,
     "michel deviation (pA2 - p^2)/p^1.5: min=-7.5510 max=14.2238\n"),
    (("verify-lemmas", "--pmax", "20"),
     "8c36296816659eefa7ce96057157be9c54f806ba21f5f03ed3afedd3b299dab1", 0, ""),
    (("sn-witness", "--f", "x^3 + x + 1", "--pmax", "100", "--format", "json"),
     "91840bf143c3e1c341e39006b9e4ee669d55837ad94db8d94f42aa04cc3acb0b", 0, ""),
    # these two were recorded before the closed forms moved to the batched
    # Frobenius kernel
    (("nagao", "--family", "builtin:shift_square", "--f", "(x+23)*(x-32)*(x+32)",
      "--pmax", "100000", "--predicted", "--format", "json"),
     "175d7d7b0cc6e255926bd5319187294e9ecbb4c8272fd26803184926a5fc2078", 0, ""),
    (("sn-witness", "--f", "2*(x-1)*(x-2)*(x-3)*(x-4)*(x-5)*(x-6)*(x-7) + 1", "--pmax", "3600",
      "--format", "json"),
     "2dfd44729eda98ab452a1b3bd2dd2368ba2d671be0b789d3534f74c1424fdc02", 0, ""),
    # these two were recorded while every deg_T <= 2 row that is not rank-one
    # still took the dense float64 kernel
    (("moments", "--family", "builtin:big_rank", "--genus", "1", "--roots", "1..6",
      "--r", "2", "--pmax", "80"),
     "20df791d5cfe4794dda1584e9eccabb0265bccef557a579e3e585def0c3f340f", 0, ""),
    (("moments", "--family-expr", "x^3 + x*T^2 + T + 1", "--genus", "1", "--r", "2",
      "--pmax", "40"),
     "38909983066380dd50adc5c4b48fa0b4b64525a444537cdf526adf56f45909e0", 0, ""),
    # these two were recorded while the brute column still came from FFT trace
    # rows; the first has no row the closed form applies to, the second mixes both
    (("second-moment", "--n", "5", "--h", "1", "--k", "2", "--pmax", "60"),
     "c9e6dd158824a33150e42d4701c114f9c4181944b3f7af9a1e28d3a1500ce0c2", 0,
     "michel deviation (pA2 - p^2)/p^1.5: min=-7.6811 max=12.3122\n"),
    (("second-moment", "--n", "7", "--h", "1", "--k", "3", "--pmax", "60"),
     "dbb513085c3e6bd1a918e3720bc46d14b791d79c2ddce201703e0a9f3f071c2c", 0,
     "michel deviation (pA2 - p^2)/p^1.5: min=-7.6811 max=19.4358\n"),
    # these three were recorded while every first moment still took one
    # context per prime; to 20000 the scan has blocks of many primes, then
    # single-prime blocks, and a pool at --jobs 2 gives the same bytes
    (("nagao", "--family", "builtin:big_rank", "--genus", "2",
      "--roots=-9,4,-16,-15,-23,13,-7,-24,21,1", "--pmax", "1000"),
     "416dd356a9061c8af58d425411697489b0ab2733075b19c9b806227f4a570a3c", 0, ""),
    (("moments", "--family", "builtin:shift_square", "--f", F3, "--r", "1", "--pmax", "20000"),
     "caab1045ce60da97442517c8016edbe39f271c33a126e32af83f7093c2e8955f", 0, ""),
    (("moments", "--family", "builtin:shift_square", "--f", F3, "--r", "1", "--pmax", "20000",
      "--jobs", "2"),
     "caab1045ce60da97442517c8016edbe39f271c33a126e32af83f7093c2e8955f", 0, ""),
    # the big_rank leg of the benchmark's higher_moment_dense workload (seed 1),
    # recorded while every r >= 2 trace row still took one context per prime
    (("moments", "--family", "builtin:big_rank", "--genus", "2",
      "--roots=-9,4,-16,-15,-23,13,-7,-24,21,1", "--r", "2", "--pmax", "1000", "--jobs", "1"),
     "f1dafc041dc0bcadcec55c4f80672bc15558d2e03791f81247c7a68c14aff397", 0, ""),
    # these two were recorded while the first-moment kernel still applied the
    # quadratic law at every cell: a linear twist (a = 0), and a constant
    # T^2 coefficient that 3, 5 and 7 divide
    (("nagao", "--family", "builtin:linear_twist", "--f", F3, "--pmax", "3000"),
     "d7e500a6218d615c69d09e4ed517b662e196a9e1e6cd92516384dc003f53cd9f", 0, ""),
    (("moments", "--family-expr", "x^3 + x*T + 105*T^2 + 1", "--genus", "1", "--r", "1",
      "--pmax", "60"),
     "8535ade26f2452f67a6c246d7fb69f4cc869ef3a080b9edf74f6da4b921244a3", 0, ""),
    # these four were recorded while every brute first moment still took the
    # O(p) pass of first_sum_vec: big_rank (a = x^5), odd k on a, and a
    # c-weight c = 2x where a = 0
    (("nagao", "--family", "builtin:big_rank", "--genus", "2", "--roots", "1..10",
      "--pmax", "10000"),
     "b2d1247962eff23220e56e93508a756c0253d26fa0683aa8227fd75628ce1752", 0, ""),
    (("nagao", "--family-expr", "3*x^3*T^2 + x*T + x + 1", "--genus", "1", "--pmax", "5000"),
     "13ca2c8e3a5a4fca339e4b42f6c091700a67b14c83763bc9a19e460f8696a02f", 0, ""),
    (("nagao", "--family-expr", "(x^3 + x + 1)*T + 2*x", "--genus", "1", "--pmax", "5000"),
     "277d1009950558b6d8327797434403b3e12f0d62143e9ca53a7a6daf180068fd", 0, ""),
    (("moments", "--family-expr", "(x^3 + x + 1)*T + 2*x", "--genus", "1", "--r", "1",
      "--pmax", "60"),
     "0308bfa347c1da0c7a9e3595741a62e9b2be1e01439cfbf47a997e27a3f67649", 0, ""),
    # these two were recorded while quadratic_power_sums still left the primes
    # where F is rank-one mod p to the FFT row: this F is rank-one mod 7 alone
    (("moments", "--family-expr", "x^3 + (x + 1)*T^2 + (x + 8)*T + 1", "--genus", "1",
      "--r", "2", "--pmax", "60"),
     "9c3fed5c8848d53a3aef6d63e88ae15b7cea4dfaaaf7c7b81e13b02ce2d2fe5f", 0, ""),
    (("moments", "--family-expr", "x^3 + (x + 1)*T^2 + (x + 8)*T + 1", "--genus", "1",
      "--r", "3", "--pmax", "60"),
     "e42b00586e05920bcf01893ed8922f0dc998701526e687ba35d04412f6075ac4", 0, ""),
    # these three were recorded while the construction still cleared the
    # denominators of Fractions
    (("construct", "--genus", "2", "--roots", "1..10", "--emit-points", "--monic"),
     "7e63c37e3da04b2bc29f86abf1274fec14ca892fbd91fbbeb32ea1205f85e9d3", 0, ""),
    (("construct", "--genus", "4", "--roots", "1..18", "--emit-points", "--monic"),
     "b48cb4a5c3ecf9d63281f5da093abc0bb895d69c157ec4f1b2382071a64c6b7e", 0, ""),
    (("construct", "--genus", "7", "--roots", "1..30", "--emit-points"),
     "7ff625532ed78759e85147f292f64c92bfd3608f3aa4fdffd70c70f02d02f172", 0, ""),
]


def _golden_ids():
    """The first three arguments; a repeat also names its --pmax, and a second
    repeat is named by its whole argv."""
    ids = []
    for argv, *_ in GOLDEN:
        name = " ".join(argv[:3])
        if name in ids:
            name = f"{name} --pmax {argv[argv.index('--pmax') + 1]}"
        ids.append(" ".join(argv) if name in ids else name)
    return ids


@pytest.mark.parametrize("argv, stdout_sha256, exit_code, stderr", GOLDEN, ids=_golden_ids())
def test_golden_output(capsys, argv, stdout_sha256, exit_code, stderr):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (exit_code, stderr)
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256


# one small run of each route of the CLI: the FFT row (shift_square at r = 2),
# the windows (big_rank at r = 2), the root counts with odd k (brute nagao on
# big_rank), the O(p) first moments of a weight that is no monomial, the
# dense row (deg_T 3 at r = 2), the closed forms (on more primes than one
# FROB_BLOCK), the Frobenius degree patterns, the power-shape class sums and
# the lemma oracles
ROUTES = [
    ("moments", "--family", "builtin:shift_square", "--f", F3, "--r", "2", "--pmax", "40"),
    ("moments", "--family", "builtin:big_rank", "--genus", "1", "--roots", "1..6",
     "--r", "2", "--pmax", "40"),
    ("nagao", "--family", "builtin:big_rank", "--genus", "1", "--roots", "1..6",
     "--pmax", "200"),
    ("moments", "--family-expr", "x^3 + (x+1)*T^2 + T + 1", "--genus", "1", "--pmax", "40"),
    # odd k with a weight 2x that is no square, and D = (x + 2)(x^2 + 1): a split
    # root that is no square and a cofactor that meets it mod 5
    ("moments", "--family-expr", "(x + 2)*(x^2 + 1)*T + 2*x", "--genus", "1", "--pmax", "40"),
    ("moments", "--family-expr", "x^3 + x*T^3 + T + 1", "--genus", "1", "--r", "2",
     "--pmax", "40"),
    ("nagao", "--family", "builtin:shift_square", "--f", F3, "--pmax", "20000", "--predicted"),
    ("sn-witness", "--f", "x^5 - x - 1", "--pmax", "100"),
    ("second-moment", "--n", "5", "--h", "1", "--k", "2", "--pmax", "40"),
    ("verify-lemmas", "--pmax", "11"),
]


def test_cli_routes_call_every_kernel_function(capsys):
    """Every top-level function of hyprank._kernels runs on some CLI route:
    code that no route reaches is either dead or a test reference, and
    belongs in neither module."""
    tree = ast.parse(Path(_kernels.__file__).read_text())
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in names:  # a cached result would run no code
        getattr(getattr(_kernels, name), "cache_clear", lambda: None)()
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == _kernels.__name__:
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        codes = [main(list(argv)) for argv in ROUTES]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(ROUTES)
    assert sorted(names - called) == []
