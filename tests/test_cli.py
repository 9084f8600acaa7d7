import hashlib
import json

import pytest

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


def test_construct_monic_flag(capsys):
    code, out = run(capsys, "construct", "--genus", "1", "--roots", "1..6", "--monic")
    assert code == 0
    obj = json.loads(out)
    terms = obj["monic_F"]["terms"]
    assert ["1", 3, 0] in terms  # monic leading term x^3


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
], ids=["negative_exponent", "json_negative_exponent", "json_not_object", "json_bad_primes"])
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


def test_family_expr(capsys):
    code, out = run(capsys, "moments", "--family-expr", "x^3 + T", "--genus", "1",
                    "--r", "1", "--pmax", "30")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[2] == "0"


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

    # one full (p^2 - p) plus a remainder of p + 1, which no shape produces
    monkeypatch.setattr(sm, "second_moment_closed", lambda fam, ctx: ctx.p * ctx.p + 1)
    code, _ = run(capsys, "second-moment", "--n", "3", "--h", "0", "--k", "1",
                  "--pmax", "20", "--bias")
    assert code == 4


@pytest.mark.parametrize("shift", [0.3, 1.0], ids=["off_integer", "nonzero_sum"])
def test_fft_rounding_guard_is_internal_failure(capsys, monkeypatch, shift):
    import numpy as np

    from hyprank.finite_field import InternalCheckError, PrimeCtx
    from hyprank.second_moment import PowerFamily, second_moment_brute

    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + shift)
    with pytest.raises(InternalCheckError):
        second_moment_brute(PowerFamily(5, 2, 1), PrimeCtx(101))
    code = main(["second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "20"])
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

    monkeypatch.setattr(moments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(moments.os, "cpu_count", lambda: 4)
    argv = ["moments", "--family", "builtin:shift_square", "--f", F3, "--pmax", "60"]
    code, serial = run(capsys, *argv)
    assert code == 0 and seen == []
    code, out = run(capsys, *argv, "--jobs", "100000")
    assert code == 0 and out == serial
    assert seen == [4]  # min(jobs, cpu_count, 17 primes)
    code, _ = run(capsys, "moments", "--family", "builtin:shift_square", "--f", F3,
                  "--pmin", "20", "--pmax", "30", "--jobs", "100000")
    assert code == 0 and seen == [4, 2]  # only 23 and 29 in range
    for argv, pools in (
        (["second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "60"], [4]),
        (["second-moment", "--n", "5", "--h", "2", "--k", "1", "--pmax", "60", "--bias"], [4]),
        # closed-form scans are one batched pass in this process: no pool
        (["sn-witness", "--f", "x^3 + x + 1", "--pmax", "60"], []),
        (["nagao", "--family", "builtin:shift_square", "--f", F3, "--pmax", "60", "--predicted"], []),
    ):
        seen.clear()
        code, serial = run(capsys, *argv, "--jobs", "1")
        assert code == 0 and seen == []
        code, out = run(capsys, *argv, "--jobs", "100000")
        assert code == 0 and out == serial, argv
        assert seen == pools, argv


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
        (["moments", "--family", "builtin:linear_twist", "--f", F3, "--r", "1"], primes),
        # closed-form scans are one batched pass: no per-prime context
        (["nagao", "--family", "builtin:linear_twist", "--f", F3, "--predicted"], []),
        (["second-moment", "--n", "5", "--h", "2", "--k", "1"], primes),
        (["second-moment", "--n", "5", "--h", "2", "--k", "1", "--bias"], primes),
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
])
def test_verify_lemmas_rejects_empty_checks(capsys, argv, err):
    code = main(["verify-lemmas", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", err)


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
]


def _golden_ids():
    """The first three arguments; a repeat also names its --pmax."""
    ids = []
    for argv, *_ in GOLDEN:
        name = " ".join(argv[:3])
        ids.append(f"{name} --pmax {argv[argv.index('--pmax') + 1]}" if name in ids else name)
    return ids


@pytest.mark.parametrize("argv, stdout_sha256, exit_code, stderr", GOLDEN, ids=_golden_ids())
def test_golden_output(capsys, argv, stdout_sha256, exit_code, stderr):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (exit_code, stderr)
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256
