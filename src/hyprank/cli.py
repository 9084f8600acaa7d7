"""Command-line interface.

Subcommands: moments, nagao, construct, second-moment, verify-lemmas,
sn-witness.  Output is CSV or JSON on stdout (or --out FILE) and is
byte-identical across runs and worker counts.  Exit codes: 0 success,
2 input error, 3 range/config error, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache

from .construction import InternalCheckError, RootData, build_family, to_monic_model
from .finite_field import PrimeRange
from .moments import (
    make_big_rank,
    make_linear_twist,
    make_power,
    make_shift_square,
    moment_series,
    nagao_sum,
    sn_witness,
)
from .curves import HyperFamily
from .oracles import LEMMA_PMAX, run_lemma_suites
from .polynomials import PolyParseError, parse_bipoly, parse_int_poly
from .second_moment import (
    PowerFamily,
    bias_report,
    michel_deviation,
    second_moment_scan,
)


class RangeConfigError(Exception):
    """Invalid prime range or incompatible option combination (exit 3)."""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = _parser(command).parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise RangeConfigError(f"--jobs must be >= 1, got {args.jobs}")
        # looked up at each call, so a wrapper set on the module later still runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except PolyParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RangeConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, built once per process and command.

    With a command, only that subcommand's parser is built under the top
    level; the explicit metavar keeps the top-level usage line, which lists
    every command, as it reads on the full parser.  With none, which serves
    -h, an unknown command and an empty argv, all of them are built.
    """
    parser = argparse.ArgumentParser(
        prog="hyprank",
        description="Moment statistics and rank heuristics for one-parameter "
        "hyperelliptic families over prime fields.",
    )
    # unset on the full parser, where an empty argv reports "command" as missing
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else (command,):
        help_text, add_options = _SUBCOMMANDS[name]
        add_options(sub.add_parser(name, help=help_text))
    return parser


def _common(p, pmax_default=None, pmax_required=False):
    p.add_argument("--pmin", type=int, default=3, help="lower prime bound (default 3)")
    p.add_argument(
        "--pmax", type=int, default=pmax_default, required=pmax_required,
        help="upper prime bound (inclusive)",
    )
    p.add_argument("--skip", default="", help="comma-separated primes to exclude")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (>= 1, capped at the CPU count); "
                   "closed-form scans run in one process")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _family_opts(p):
    p.add_argument(
        "--family",
        help="builtin:shift_square | builtin:linear_twist | builtin:big_rank "
        "| builtin:power:N,H,K | path to a family JSON file",
    )
    p.add_argument("--family-expr", help="inline polynomial in x and T")
    p.add_argument("--f", help="polynomial f(x) for shift_square / linear_twist; "
                   "a leading minus needs the = form, --f=-x^3+1")
    p.add_argument("--genus", type=int, help="genus (family-expr and big_rank)")
    p.add_argument("--roots", help="roots for big_rank, e.g. 1..10 or 1,-2,3; "
                   "a leading negative root needs the = form, --roots=-3,5,...")
    p.add_argument("--label", default=None)


def _moments_opts(p):
    _family_opts(p)
    p.add_argument("--r", type=int, default=1, help="moment order (default 1)")
    _common(p, pmax_required=True)


def _nagao_opts(p):
    _family_opts(p)
    p.add_argument(
        "--predicted", action="store_true",
        help="use the closed-form per-prime values instead of brute force",
    )
    _common(p, pmax_required=True)


def _construct_opts(p):
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--roots", required=True, help="4g+2 integers, e.g. 1..10 or 1,-2,3,...; "
                   "a leading negative root needs the = form, --roots=-3,5,...")
    p.add_argument("--emit-points", action="store_true", help="include the sections")
    p.add_argument("--monic", action="store_true", help="include the monic-in-x model")
    p.add_argument("--label", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)


def _second_moment_opts(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bias", action="store_true", help="closed-form bias report only")
    _common(p, pmax_required=True)


def _verify_lemmas_opts(p):
    p.add_argument("--pmax", type=int, default=60)
    p.add_argument("--nmax", type=int, default=12, help="largest exponent checked")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)


def _sn_witness_opts(p):
    p.add_argument("--f", required=True, help="squarefree polynomial in x; "
                   "a leading minus needs the = form, --f=-x^3+1")
    _common(p, pmax_default=200)


# Each subcommand's help line and the function that adds its options, in the order -h lists them.
_SUBCOMMANDS = {
    "moments": ("per-prime moments of Frobenius traces", _moments_opts),
    "nagao": ("log-weighted partial sums of -A_1(p)", _nagao_opts),
    "construct": ("build the rank-(4g+2) family from roots", _construct_opts),
    "second-moment": ("second moments of y^2 = x^n + x^h T^k", _second_moment_opts),
    "verify-lemmas": ("closed forms vs exhaustive enumeration", _verify_lemmas_opts),
    "sn-witness": ("symmetric-group certificate scan", _sn_witness_opts),
}


# ---------------------------------------------------------------------------
# option plumbing


def _parse_skip(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    return frozenset(int(tok) for tok in text.split(",") if tok.strip())


def _prime_range(args) -> PrimeRange | None:
    """The requested range, or None when it contains no odd primes."""
    if args.pmax is None or args.pmin < 0 or args.pmax < 0:
        raise RangeConfigError("prime bounds must be nonnegative")
    lo = max(args.pmin, 3)
    if args.pmax < lo:
        return None
    return PrimeRange(lo, args.pmax, _parse_skip(args.skip))


def parse_roots(text: str) -> list[int]:
    """Accept `a..b` inclusive ranges or comma-separated integers."""
    text = text.strip()
    if ".." in text and "," not in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty root range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _resolve_family(args) -> HyperFamily:
    sources = [s for s in (args.family, args.family_expr) if s]
    if len(sources) != 1:
        raise ValueError("exactly one family source is required (--family or --family-expr)")
    if args.family_expr:
        if args.genus is None:
            raise ValueError("--family-expr requires --genus")
        F = parse_bipoly(args.family_expr)
        label = args.family_expr if args.label is None else args.label
        return HyperFamily(label, args.genus, F)
    source = args.family
    if source.startswith("builtin:"):
        kind = source[len("builtin:"):]
        if kind in ("shift_square", "linear_twist"):
            if not args.f:
                raise ValueError(f"builtin:{kind} requires --f")
            f = parse_int_poly(args.f)
            maker = make_shift_square if kind == "shift_square" else make_linear_twist
            return maker(f, label=args.label)
        if kind == "big_rank":
            if args.genus is None or not args.roots:
                raise ValueError("builtin:big_rank requires --genus and --roots")
            rd = RootData(args.genus, tuple(parse_roots(args.roots)))
            return make_big_rank(build_family(rd), label=args.label)
        if kind.startswith("power:"):
            parts = kind[len("power:"):].split(",")
            if len(parts) != 3:
                raise ValueError("builtin:power takes N,H,K")
            n, h, k = (int(s) for s in parts)
            return make_power(n, h, k, label=args.label)
        raise ValueError(f"unknown builtin family {kind!r}")
    with open(source, encoding="utf-8") as fh:
        fam = HyperFamily.from_json(json.load(fh))
    return fam if args.label is None else replace(fam, label=args.label)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_moments(args) -> int:
    if args.r < 1:
        raise ValueError("moment order must be >= 1")
    fam = _resolve_family(args)
    prange = _prime_range(args)
    header = "p,r,p_times_A_numer,predicted,generic_flag"
    if prange is None:
        _emit(header + "\n" if args.format == "csv" else _dump({"label": fam.label, "r": args.r, "rows": []}), args.out)
        return 0
    _check_printable(args.r, prange.hi)
    series = moment_series(fam, args.r, prange, jobs=args.jobs)
    if args.format == "csv":
        lines = [header]
        for row in series.rows:
            pred = "" if row.p_times_predicted is None else str(row.p_times_predicted)
            gen = "" if row.generic is None else str(int(row.generic))
            lines.append(f"{row.p},{series.r},{row.p_times_A},{pred},{gen}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        obj = {
            "label": series.label,
            "r": series.r,
            "rows": [
                {
                    "p": row.p,
                    "p_times_A": str(row.p_times_A),
                    "predicted": None if row.p_times_predicted is None else str(row.p_times_predicted),
                    "generic": row.generic,
                }
                for row in series.rows
            ],
        }
        _emit(_dump(obj), args.out)
    return 0


def _check_printable(r: int, pmax: int) -> None:
    """Refuse an r whose p * A_r(p) may not print: |p * A_r(p)| <= p^(r + 1),
    which prints while pmax^(r + 1) < 10^limit, Python's digit limit (none
    before 3.10.7).  With b the bit length of pmax, the power is formed only
    between 2^((r + 1) (b - 1)) and 2^((r + 1) b): below 8^limit it passes,
    past 16^limit it is refused."""
    limit = _digit_limit()
    b = pmax.bit_length()
    if limit and (r + 1) * b > 3 * limit and (
            (r + 1) * (b - 1) >= 4 * limit or pmax ** (r + 1) >= 10**limit):
        raise RangeConfigError(f"--r {r} up to --pmax {pmax}: p * A_r(p) may have more than "
                               f"the {limit} digits Python prints")


def _digit_limit() -> int:
    """Python's limit on the digits of an int it prints, 0 for none (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def cmd_nagao(args) -> int:
    fam = _resolve_family(args)
    if args.pmax is None or args.pmax < 3:
        raise RangeConfigError(f"nagao needs --pmax >= 3, got {args.pmax}")
    prange = _prime_range(args)
    if prange is None:
        raise RangeConfigError("empty prime range for the Nagao sum")
    if args.predicted and fam.closed_form is None:
        raise RangeConfigError(f"family {fam.label!r} has no closed-form predictor")
    est = nagao_sum(fam, prange, jobs=args.jobs, predicted=args.predicted)
    if args.format == "csv":
        text = "P,s_theta,s_pi,n_primes,skipped\n" + (
            f"{est.P},{est.s_theta!r},{est.s_pi!r},{est.n_primes},"
            + ";".join(str(p) for p in est.skipped)
            + "\n"
        )
        _emit(text, args.out)
    else:
        _emit(_dump(est.to_json()), args.out)
    return 0


def cmd_construct(args) -> int:
    if args.format != "json":
        raise RangeConfigError("construct output is JSON only")
    rd = RootData(args.genus, tuple(parse_roots(args.roots)))
    cr = build_family(rd, label=args.label)
    obj = cr.to_json()
    if args.emit_points:
        obj["construction"]["points"] = [
            {"x": str(x), "y": [str(c) for c in y.coeffs]} for x, y in cr.points
        ]
    if args.monic:
        monic = to_monic_model(cr.F, rd.genus)
        limit = _digit_limit()
        if limit and max(map(abs, monic.terms.values())) >= 10**limit:
            raise RangeConfigError(f"--monic at genus {rd.genus}: the monic model has a coefficient "
                                   f"of more than the {limit} digits Python prints "
                                   "(sys.get_int_max_str_digits())")
        obj["monic_F"] = monic.to_json()
    _emit(_dump(obj), args.out)
    return 0


def cmd_second_moment(args) -> int:
    fam = PowerFamily(args.n, args.h, args.k)
    prange = _prime_range(args)
    if args.bias:
        if prange is None:
            raise RangeConfigError("empty prime range for bias report")
        report = bias_report(fam, prange)
        if args.format == "csv":
            lines = ["p,pA2_closed,c2,c1,remainder"]
            for row in report.rows:
                lines.append(f"{row.p},{row.p_a2},{row.c2},{row.c1},{row.remainder}")
            _emit("\n".join(lines) + "\n", args.out)
            mean = "none" if report.mean_c1 is None else repr(report.mean_c1)
            print(f"mean_c1 = {mean} over {len(report.rows)} applicable primes", file=sys.stderr)
        else:
            obj = {
                "family": {"n": fam.n, "h": fam.h, "k": fam.k},
                "P": report.P,
                "mean_c1": report.mean_c1,
                "rows": [
                    {"p": r.p, "pA2": str(r.p_a2), "c2": r.c2, "c1": r.c1, "remainder": r.remainder}
                    for r in report.rows
                ],
            }
            _emit(_dump(obj), args.out)
        return 0

    rows = [] if prange is None else second_moment_scan(fam, prange, jobs=args.jobs)
    if args.format == "csv":
        lines = ["p,pA2_brute,pA2_closed,applicable,c2,c1"]
        for p, brute, closed, c2, c1 in rows:
            app = "0" if closed is None else "1"
            closed_s, c2_s, c1_s = ("" if v is None else v for v in (closed, c2, c1))
            lines.append(f"{p},{brute},{closed_s},{app},{c2_s},{c1_s}")
        _emit("\n".join(lines) + "\n", args.out)
        if rows:
            devs = [michel_deviation(brute, p) for p, brute, *_ in rows]
            print(f"michel deviation (pA2 - p^2)/p^1.5: min={min(devs):.4f} max={max(devs):.4f}",
                  file=sys.stderr)
    else:
        obj = {
            "family": {"n": fam.n, "h": fam.h, "k": fam.k},
            "rows": [
                {
                    "p": p,
                    "pA2_brute": str(brute),
                    "pA2_closed": None if closed is None else str(closed),
                    "applicable": closed is not None,
                    "c2": c2,
                    "c1": c1,
                    "michel_dev": michel_deviation(brute, p),
                }
                for p, brute, closed, c2, c1 in rows
            ],
        }
        _emit(_dump(obj), args.out)
    return 0


def cmd_verify_lemmas(args) -> int:
    if args.pmax < 3:
        raise RangeConfigError("empty prime range for the lemma suites")
    if args.pmax > LEMMA_PMAX:
        raise RangeConfigError(f"--pmax must be <= {LEMMA_PMAX} for the lemma suites "
                               f"(their enumeration grows as p^4), got {args.pmax}")
    if args.nmax < 2:
        raise RangeConfigError(f"--nmax must be >= 2, got {args.nmax}")
    if args.nmax > LEMMA_PMAX:
        raise RangeConfigError(f"--nmax must be <= {LEMMA_PMAX} for the lemma suites "
                               f"(x^n depends only on n mod p - 1), got {args.nmax}")
    results = run_lemma_suites(args.pmax, args.nmax)
    if args.format == "json":
        obj = [
            {"name": r.name, "primes": r.primes, "cases": r.cases, "passed": r.passed,
             "first_failure": r.first_failure}
            for r in results
        ]
        _emit(_dump(obj), args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else f"FAIL at {r.first_failure}"
            lines.append(f"{status:4s} {r.name} ({r.primes} primes, {r.cases} cases)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 4


def cmd_sn_witness(args) -> int:
    f = parse_int_poly(args.f)
    prange = _prime_range(args)
    if prange is None:
        raise RangeConfigError("empty prime range for the witness scan")
    report = sn_witness(f, prange)
    if args.format == "json":
        _emit(_dump(report.to_json()), args.out)
    else:
        status = "FOUND" if report.found else "INCONCLUSIVE"
        lines = [f"{status} (degree {report.degree}, {report.scanned} primes scanned, "
                 f"{report.ramified} ramified)"]
        for name, p in report.witnesses.items():
            lines.append(f"  {name}: {'p=' + str(p) if p else 'not seen'}")
        census = report.to_json()["census"]
        lines.append("  census: " + ", ".join(f"{k}:{v}" for k, v in census.items()))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
