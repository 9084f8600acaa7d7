"""Seeded inputs and the CLI invocations ("legs") of each workload.

The program only ever sees CLI argv built here.  Every input is drawn from
``random.Random(seed)`` and is valid by construction: distinct cubic roots,
nonzero genus-2 roots with pairwise distinct squares, second-moment
exponents with gcd(k, n - h) = 1 (so every row has a closed form), and a
monic squarefree degree-7 polynomial for the witness scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

# Sizes of the legs.  Dense legs stay in their regime: many small p, or the
# two primes in [10000, 10010].
NAGAO_BRUTE_P = 1500
LARGE_P = (10000, 10010)
BIG_RANK_PMAX = 1000
SECOND_MOMENT_PMAX = 1500
NAGAO_PREDICTED_P = 100_000
SN_PMAX = 3600
BIAS_P = 10_000
LEMMA_PMAX = 60
GENUS = 2

WORKLOADS = ("first_moment_dense", "higher_moment_dense", "closed_form_scan")


@dataclass(frozen=True)
class Inputs:
    seed: int
    cubic_roots: tuple[int, ...]
    rank_roots: tuple[int, ...]
    power: tuple[int, int, int]
    sn_coeffs: tuple[int, ...]
    construct_roots: tuple[int, ...]

    @property
    def cubic(self) -> str:
        return "*".join(f"(x-{r})" if r >= 0 else f"(x+{-r})" for r in self.cubic_roots)

    @property
    def sn_poly(self) -> str:
        terms = [f"{c}*x^{i}" if i else str(c) for i, c in enumerate(self.sn_coeffs) if c]
        return "+".join(terms).replace("+-", "-")


def _genus2_roots(rng: random.Random) -> tuple[int, ...]:
    mags = rng.sample(range(1, 26), 4 * GENUS + 2)
    return tuple(m if rng.random() < 0.5 else -m for m in mags)


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    cubic = tuple(rng.sample(range(-40, 41), 3))
    rank = _genus2_roots(rng)
    hk = [(h, k) for h in range(5) for k in range(1, 5) if checks.gcd(k, 5 - h) == 1]
    h, k = rng.choice(hk)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(7)] + [1]
        if coeffs[0] and checks.resultant_with_derivative(coeffs):
            break
    return Inputs(seed, cubic, rank, (5, h, k), tuple(coeffs), _genus2_roots(rng))


@dataclass(frozen=True)
class Leg:
    """One CLI invocation, the check of its output, and the largest prime a
    dense O(p^2) kernel runs at (0 when the leg runs none)."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], checks.Tally]
    dense_p: int


def _roots_arg(roots) -> str:
    return ",".join(str(r) for r in roots)


def nagao_brute_leg(inp: Inputs, jobs: int = 1) -> Leg:
    argv = ("nagao", "--family", "builtin:shift_square", f"--f={inp.cubic}",
            "--pmax", str(NAGAO_BRUTE_P), "--jobs", str(jobs))
    return Leg(
        "nagao_brute", argv,
        lambda rc, out: checks.check_nagao(rc, out, inp.cubic_roots, NAGAO_BRUTE_P, False),
        NAGAO_BRUTE_P,
    )


def legs(workload: str, inp: Inputs) -> list[Leg]:
    lo, hi = LARGE_P
    if workload == "first_moment_dense":
        return [
            nagao_brute_leg(inp),
            Leg(
                "linear_twist_r1",
                ("moments", "--family", "builtin:linear_twist", f"--f={inp.cubic}", "--r", "1",
                 "--pmin", str(lo), "--pmax", str(hi), "--jobs", "1"),
                lambda rc, out: checks.check_linear_twist(rc, out, inp.cubic_roots, lo, hi),
                hi,
            ),
            _big_rank_leg(inp, 1),
        ]
    if workload == "higher_moment_dense":
        return [
            _second_moment_leg(inp, 3, SECOND_MOMENT_PMAX),
            _second_moment_leg(inp, lo, hi),
            _big_rank_leg(inp, 2),
        ]
    if workload == "closed_form_scan":
        coeffs = inp.sn_coeffs
        return [
            Leg(
                "nagao_predicted",
                ("nagao", "--family", "builtin:shift_square", f"--f={inp.cubic}",
                 "--pmax", str(NAGAO_PREDICTED_P), "--predicted", "--jobs", "1"),
                lambda rc, out: checks.check_nagao(rc, out, inp.cubic_roots, NAGAO_PREDICTED_P, True),
                0,
            ),
            Leg(
                "sn_witness",
                ("sn-witness", f"--f={inp.sn_poly}", "--pmax", str(SN_PMAX), "--format", "json", "--jobs", "1"),
                lambda rc, out: checks.check_sn_witness(rc, out, coeffs, SN_PMAX),
                0,
            ),
            Leg(
                "bias",
                ("second-moment", "--n", "3", "--h", "0", "--k", "1", "--pmax", str(BIAS_P),
                 "--bias", "--format", "json", "--jobs", "1"),
                lambda rc, out: checks.check_bias(rc, out, 3, 0, 1, BIAS_P),
                0,
            ),
            Leg(
                "verify_lemmas",
                ("verify-lemmas", "--pmax", str(LEMMA_PMAX)),
                lambda rc, out: checks.check_verify_lemmas(rc, out, LEMMA_PMAX),
                0,
            ),
            _construct_leg(inp.construct_roots, published=False),
            _construct_leg(tuple(range(1, 4 * GENUS + 3)), published=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _big_rank_leg(inp: Inputs, r: int) -> Leg:
    rank = checks.RankConstruction(GENUS, inp.rank_roots)
    argv = ("moments", "--family", "builtin:big_rank", "--genus", str(GENUS),
            f"--roots={_roots_arg(inp.rank_roots)}", "--r", str(r),
            "--pmax", str(BIG_RANK_PMAX), "--jobs", "1")
    return Leg(
        f"big_rank_r{r}", argv,
        lambda rc, out: checks.check_big_rank(rc, out, rank, r, BIG_RANK_PMAX),
        BIG_RANK_PMAX,
    )


def _second_moment_leg(inp: Inputs, lo: int, hi: int) -> Leg:
    n, h, k = inp.power
    argv = ("second-moment", "--n", str(n), "--h", str(h), "--k", str(k),
            "--pmin", str(lo), "--pmax", str(hi), "--jobs", "1")
    return Leg(
        f"second_moment_{lo}_{hi}", argv,
        lambda rc, out: checks.check_second_moment(rc, out, n, h, k, lo, hi),
        hi,
    )


def _construct_leg(roots, published: bool) -> Leg:
    argv = ("construct", "--genus", str(GENUS), f"--roots={_roots_arg(roots)}",
            "--emit-points", "--monic")
    return Leg(
        "construct_published" if published else "construct_seeded", argv,
        lambda rc, out: checks.check_construct(rc, out, GENUS, roots, published),
        0,
    )


def setup(workload: str, inp: Inputs) -> None:
    """The family construction a workload needs, called on the library directly.

    Timed as part of setup_s, after ``import hyprank.cli``.
    """
    from hyprank.construction import RootData, build_family
    from hyprank.moments import make_big_rank, make_linear_twist, make_shift_square
    from hyprank.polynomials import parse_int_poly
    from hyprank.second_moment import PowerFamily

    if workload == "first_moment_dense":
        f = parse_int_poly(inp.cubic)
        make_shift_square(f)
        make_linear_twist(f)
        make_big_rank(build_family(RootData(GENUS, inp.rank_roots)))
    elif workload == "higher_moment_dense":
        PowerFamily(*inp.power)
        make_big_rank(build_family(RootData(GENUS, inp.rank_roots)))
    elif workload == "closed_form_scan":
        make_shift_square(parse_int_poly(inp.cubic))
        parse_int_poly(inp.sn_poly)
        PowerFamily(3, 0, 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
