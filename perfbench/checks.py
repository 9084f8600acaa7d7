"""Independent reference checks for every CLI output the benchmark produces.

Nothing here imports hyprank: each reference is recomputed from the seeded
inputs with plain Python integers, from the character-sum identities the
paper states, so a wrong row in the program cannot be mirrored by the
checker.  One operation is one checked output row or estimate; a nonzero
exit or an unparsable output fails every row the invocation owed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd, isqrt

# Relative tolerance for the float Nagao sums against the checker's series.
# Both sides add the same exact per-prime values in the same order, so they
# normally agree bit for bit; the tolerance only absorbs a reordering.
NAGAO_RTOL = 1e-9

# Expansion coefficients R_0..R_9 of prod (x - i^2), i = 1..10, as published.
PUBLISHED_R = (
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
)

# big_rank r = 2 rows at the smallest primes are recomputed by enumeration.
SPOT_ROWS = 3


class Tally:
    """Counts checked operations and keeps the first few failure messages."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.fail(1, what)

    def fail(self, n: int, what: str) -> None:
        self.failed += n
        if len(self.messages) < 5:
            self.messages.append(what)

    def fail_all(self, owed: int, what: str) -> None:
        self.ops += owed
        self.fail(owed, what)


# ---------------------------------------------------------------------------
# arithmetic references


def primes_between(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi] by a plain sieve."""
    if hi < 3:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, hi + 1, q)))
    return [n for n in range(max(lo, 3), hi + 1) if sieve[n]]


def distinct_residues(roots, p: int) -> int:
    return len({r % p for r in roots})


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def from_roots(roots) -> list[int]:
    out = [1]
    for r in roots:
        out = poly_mul(out, [-r, 1])
    return out


def resultant_with_derivative(f: list[int]) -> int:
    """Res(f, f') as the Sylvester determinant, by fraction-free elimination."""
    df = [i * c for i, c in enumerate(f)][1:]
    m, n = len(f) - 1, len(df) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + f[::-1] + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + df[::-1] + [0] * (size - n - 1 - i))
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1]


def power_second_moment(n: int, h: int, k: int, p: int):
    """Closed-form p * A_2(p) of y^2 = x^n + x^h T^k, or None if not applicable."""
    if gcd(gcd(k, n - h), p - 1) != 1:
        return None
    d = gcd(n - h, p - 1)
    if h % 2 == 1:
        v2 = lambda m: (m & -m).bit_length() - 1  # noqa: E731
        return d * (p * p - p) if v2(p - 1) > v2(n - h) else 0
    if h == 0:
        return (d - 1) * (p * p - p)
    return (d - 1) * (p * p - p) + (p - 1) + (1 if k == 0 else 0)


def family_terms(n: int, q: list[int], h: list[int]) -> dict:
    """Terms {(i, j): c} of x^n T^2 + 2 q(x) T - h(x)."""
    terms = {(n, 2): 1}
    for i, c in enumerate(q):
        terms[(i, 1)] = terms.get((i, 1), 0) + 2 * c
    for i, c in enumerate(h):
        terms[(i, 0)] = terms.get((i, 0), 0) - c
    return {k: v for k, v in terms.items() if v}


class RankConstruction:
    """The rank-(4g+2) family rebuilt from its roots with exact rationals.

    Solves q^2 + x^n h = A * prod (x - rho_i^2) for monic q with A = 4 R_0,
    then clears denominators: q -> L q, h -> L^2 h.
    """

    def __init__(self, genus: int, rho):
        self.genus = g = genus
        self.rho = tuple(rho)
        n = self.n = 2 * g + 1
        R = from_roots([r * r for r in self.rho])
        A = 4 * R[0]
        target = [Fraction(A * c) for c in R]
        q = [Fraction(0)] * (n + 1)
        q[0], q[n] = Fraction(2 * R[0]), Fraction(1)
        for k in range(1, n):
            cross = sum(q[i] * q[k - i] for i in range(1, k))
            q[k] = (target[k] - cross) / (2 * q[0])
        rest = [t - c for t, c in zip(target, poly_mul(q, q))]
        if any(rest[:n]):
            raise ValueError("reference construction failed its identity")
        h = rest[n:]
        L = math.lcm(*(c.denominator for c in q + h))
        self.R, self.A, self.L = R, A, L
        self.q = [int(c * L) for c in q]
        self.h = [int(c * L * L) for c in h]

    def F(self) -> dict:
        return family_terms(self.n, self.q, self.h)

    def bad_primes(self, primes) -> set[int]:
        bad = set()
        for p in primes:
            if self.L % p == 0 or self.A % p == 0:
                bad.add(p)
            elif len({r * r % p for r in self.rho}) != len(self.rho):
                bad.add(p)
        return bad

    def euler_power_sum(self, r: int, p: int) -> int:
        """sum over t of a_t^r, with a_t = -sum_x (F(x, t) / p) by Euler's criterion."""
        terms = [(i, j, c % p) for (i, j), c in self.F().items()]
        half = (p - 1) // 2
        total = 0
        for t in range(p):
            coeff = [0] * (self.n + 1)
            for i, j, c in terms:
                coeff[i] = (coeff[i] + c * pow(t, j, p)) % p
            a = 0
            for x in range(p):
                v = 0
                for c in reversed(coeff):
                    v = (v * x + c) % p
                if v:
                    a -= 1 if pow(v, half, p) == 1 else -1
            total += a**r
        return total


# ---------------------------------------------------------------------------
# output parsing


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.strip("\n").split("\n")
    if lines[0] != header:
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def _rows_by_prime(rows: list[list[str]]) -> dict[int, list[str]]:
    return {int(r[0]): r for r in rows}


def _guard(tally: Tally, owed: int, rc: int, text: str, body) -> Tally:
    """Run a row checker; a bad exit or unparsable output fails every owed row."""
    if rc != 0:
        tally.fail_all(owed, f"exit code {rc}")
        return tally
    try:
        body(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        tally.ops = tally.failed = 0
        tally.fail_all(owed, f"unparsable output: {exc!r}")
    return tally


def _extra_rows(tally: Tally, got, want) -> None:
    extra = sorted(set(got) - set(want))
    if extra:
        tally.fail(1, f"unexpected rows for p = {extra[:5]}")
        tally.ops += 1


# ---------------------------------------------------------------------------
# per-subcommand checks


def nagao_reference(values: dict[int, int], P: int) -> tuple[float, float, int]:
    """s_theta, s_pi and the prime count of the closed-form series."""
    theta = 0.0
    pi_sum = 0.0
    for p in sorted(values):
        v = float(values[p])
        theta += v * math.log(p)
        pi_sum += v
    n = len(values)
    return theta / P, (pi_sum / n if n else 0.0), n


def check_nagao(rc: int, text: str, roots, P: int, predicted: bool) -> Tally:
    """One estimate: -A_1(p) = N_p - 1 for y^2 = f(x) + T^2 at every odd prime.

    N_p counts distinct roots of the split cubic mod p.  The brute force
    covers every prime; the predicted path skips primes where f is not
    squarefree mod p (N_p < deg f) and lists them.
    """
    primes = primes_between(3, P)
    values, skipped = {}, []
    for p in primes:
        n_p = distinct_residues(roots, p)
        if predicted and n_p < len(roots):
            skipped.append(p)
        else:
            values[p] = n_p - 1
    s_theta, s_pi, n = nagao_reference(values, P)

    def body(out):
        rows = _csv_rows(out, "P,s_theta,s_pi,n_primes,skipped")
        (got,) = rows
        got_skip = [int(s) for s in got[4].split(";") if s]
        close = all(
            abs(float(x) - ref) <= NAGAO_RTOL * max(1.0, abs(ref))
            for x, ref in ((got[1], s_theta), (got[2], s_pi))
        )
        ok = int(got[0]) == P and close and int(got[3]) == n and got_skip == skipped
        tally.check(ok, f"nagao estimate {got} != ({s_theta!r}, {s_pi!r}, {n}, {skipped})")

    tally = Tally()
    return _guard(tally, 1, rc, text, body)


def check_linear_twist(rc: int, text: str, roots, lo: int, hi: int) -> Tally:
    """Rows of moments --r 1 for y^2 = f(x) T + 1: p * A_1 = -p * N_p exactly.

    Generic rows (f squarefree mod p, i.e. N_p = deg f for a split monic f)
    must also carry the prediction -L_f * p with L_f = N_p.
    """
    primes = primes_between(lo, hi)
    tally = Tally()

    def body(out):
        got = _rows_by_prime(_csv_rows(out, "p,r,p_times_A_numer,predicted,generic_flag"))
        for p in primes:
            n_p = distinct_residues(roots, p)
            generic = n_p == len(roots)
            want = [str(p), "1", str(-p * n_p), str(-p * n_p) if generic else "", "1" if generic else "0"]
            tally.check(got.get(p) == want, f"linear_twist row p={p}: {got.get(p)} != {want}")
        _extra_rows(tally, got, primes)

    return _guard(tally, len(primes), rc, text, body)


def check_big_rank(rc: int, text: str, con: RankConstruction, r: int, pmax: int) -> Tally:
    """Rows of moments on the rank-(4g+2) family.

    Rows cover every odd prime up to pmax except the family's bad primes
    (those dividing L * A or where squared roots collide).  For r = 1 every
    row reads p * A_1 = -(4g+2) p with a matching prediction.  For r = 2 the
    sum of squared traces is at least (4g+2)^2 p by Cauchy-Schwarz and at
    most p^3; the SPOT_ROWS smallest rows are recomputed exactly by
    enumeration.
    """
    primes = primes_between(3, pmax)
    bad = con.bad_primes(primes)
    want_primes = [p for p in primes if p not in bad]
    spot = set(want_primes[:SPOT_ROWS]) if r == 2 else set()
    rank = 4 * con.genus + 2
    tally = Tally()

    def body(out):
        got = _rows_by_prime(_csv_rows(out, "p,r,p_times_A_numer,predicted,generic_flag"))
        for p in want_primes:
            row = got.get(p)
            if row is None:
                tally.check(False, f"big_rank missing row p={p}")
                continue
            if r == 1:
                want = [str(p), "1", str(-rank * p), str(-rank * p), "1"]
                tally.check(row == want, f"big_rank r=1 row {row} != {want}")
                continue
            val = int(row[2])
            ok = row[1] == "2" and row[3:] == ["", ""] and rank * rank * p <= val <= p**3
            if ok and p in spot:
                ok = val == con.euler_power_sum(2, p)
            tally.check(ok, f"big_rank r=2 row {row}")
        _extra_rows(tally, got, want_primes)

    return _guard(tally, len(want_primes), rc, text, body)


def check_second_moment(rc: int, text: str, n: int, h: int, k: int, lo: int, hi: int) -> Tally:
    """Rows of second-moment: on applicable rows brute == closed == reference."""
    primes = primes_between(lo, hi)
    tally = Tally()

    def body(out):
        got = _rows_by_prime(_csv_rows(out, "p,pA2_brute,pA2_closed,applicable,c2,c1"))
        for p in primes:
            row = got.get(p)
            ref = power_second_moment(n, h, k, p)
            if row is None:
                tally.check(False, f"second-moment missing row p={p}")
                continue
            if ref is None:
                ok = row[2:] == ["", "0", "", ""] and 0 <= int(row[1]) <= p**3
            else:
                c2 = ref // (p * p - p)
                ok = row[1:] == [str(ref), str(ref), "1", str(c2), str(-c2)]
            tally.check(ok, f"second-moment row {row}, reference {ref}")
        _extra_rows(tally, got, primes)

    return _guard(tally, len(primes), rc, text, body)


def check_bias(rc: int, text: str, n: int, h: int, k: int, P: int) -> Tally:
    """JSON bias report: one row per applicable prime, plus the mean of c1."""
    ref = {}
    for p in primes_between(3, P):
        v = power_second_moment(n, h, k, p)
        if v is not None:
            ref[p] = v
    tally = Tally()

    def body(out):
        obj = json.loads(out)
        got = {int(r["p"]): r for r in obj["rows"]}
        c1s = []
        for p, v in ref.items():
            row = got.get(p)
            c2 = v // (p * p - p)
            c1s.append(-c2)
            want = {"p": p, "pA2": str(v), "c2": c2, "c1": -c2, "remainder": v - c2 * (p * p - p)}
            tally.check(row == want, f"bias row {row} != {want}")
        _extra_rows(tally, got, ref)
        mean = sum(c1s) / len(c1s)
        ok = obj["P"] == P and abs(obj["mean_c1"] - mean) <= 1e-12 * max(1.0, abs(mean))
        tally.check(ok, f"bias mean_c1 {obj['mean_c1']!r} != {mean!r}")

    return _guard(tally, len(ref) + 1, rc, text, body)


LEMMA_SUITES = ("quadratic-char-sum", "linear-sum-vanishing", "power-pair-count", "paired-power-char-sum")


def check_verify_lemmas(rc: int, text: str, pmax: int) -> Tally:
    """Every lemma suite reports PASS over the odd primes up to pmax."""
    n_primes = len(primes_between(3, pmax))
    tally = Tally()

    def body(out):
        lines = out.strip("\n").split("\n")
        if len(lines) != len(LEMMA_SUITES):
            raise ValueError(f"expected {len(LEMMA_SUITES)} suite lines, got {len(lines)}")
        for name, line in zip(LEMMA_SUITES, lines):
            ok = line.startswith(f"PASS {name} ({n_primes} primes, ")
            tally.check(ok, f"lemma suite line {line!r}")

    return _guard(tally, len(LEMMA_SUITES), rc, text, body)


def check_sn_witness(rc: int, text: str, coeffs, pmax: int) -> Tally:
    """Scan census: every prime scanned once, ramified exactly at p | disc f.

    ``coeffs`` lists a monic squarefree f from low to high degree, so f mod
    p keeps its degree and is squarefree unless p divides Res(f, f').
    """
    primes = primes_between(3, pmax)
    res = resultant_with_derivative(list(coeffs))
    ramified = sum(1 for p in primes if res % p == 0)
    tally = Tally()

    def body(out):
        obj = json.loads(out)
        census = obj["census"]
        tally.check(obj["scanned"] == len(primes), f"scanned {obj['scanned']} != {len(primes)}")
        tally.check(sum(census.values()) == len(primes), f"census sums to {sum(census.values())}")
        ok = obj["ramified"] == ramified == census.get("ramified", 0)
        tally.check(ok, f"ramified {obj['ramified']} != {ramified}")
        deg = len(coeffs) - 1
        parts_ok = all(
            key == "ramified" or sum(int(d) for d in key.split("+")) == deg for key in census
        )
        wit = obj["witnesses"]
        found = all(v is not None for v in wit.values())
        ok = parts_ok and all(v is None or v in primes for v in wit.values())
        ok = ok and obj["degree"] == deg and obj["status"] == ("FOUND" if found else "INCONCLUSIVE")
        tally.check(ok, f"witness report {wit} / {obj['status']}")

    return _guard(tally, 4, rc, text, body)


def _bi_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _terms(obj) -> dict:
    return {(int(i), int(j)): int(c) for c, i, j in obj["terms"]}


def check_construct(rc: int, text: str, genus: int, rho, published: bool) -> Tally:
    """The constructed family: its identities recomputed with Python ints.

    D = scale * prod (x - rho_i^2); F = x^n T^2 + 2 q T - h; every section
    satisfies y_i(T)^2 = F(x_i, T); the monic model equals
    x^n + sum g_i(T) u(T)^(n-1-i) x^i.  With published=True the expansion
    coefficients must also equal the published R_0..R_9.
    """
    n = 2 * genus + 1
    owed = 4 + len(rho) + (1 if published else 0)
    tally = Tally()

    def body(out):
        obj = json.loads(out)
        con = obj["construction"]
        q = [int(c) for c in con["q"]]
        h = [int(c) for c in con["h"]]
        scale = int(con["scale"])
        D = [int(c) for c in con["D"]]
        tally.check(D == [scale * c for c in from_roots([r * r for r in rho])], "D != scale * prod")
        qq = poly_mul(q, q)
        xh = [0] * n + h
        width = max(len(qq), len(xh))
        lhs = [(qq[i] if i < len(qq) else 0) + (xh[i] if i < len(xh) else 0) for i in range(width)]
        tally.check(lhs == D, "q^2 + x^n h != D")
        F = _terms(obj["F"])
        tally.check(F == family_terms(n, q, h), "F != x^n T^2 + 2qT - h")
        points = con["points"]
        for r, pt in zip(rho, points):
            x = int(pt["x"])
            y = [int(c) for c in pt["y"]]
            fx = [0, 0, 0]
            for (i, j), c in F.items():
                fx[j] += c * x**i
            tally.check(x == r * r and poly_mul(y, y) == fx, f"section at x = {x}")
        if len(points) != len(rho):
            tally.check(False, f"{len(points)} sections for {len(rho)} roots")
        u = {(0, j): c for (i, j), c in F.items() if i == n}
        monic = {(n, 0): 1}
        upow = [{(0, 0): 1}]
        for _ in range(n - 1):
            upow.append(_bi_mul(upow[-1], u))
        for i in range(n):
            gi = {(i, j): c for (ii, j), c in F.items() if ii == i}
            for key, c in _bi_mul(gi, upow[n - 1 - i]).items():
                monic[key] = monic.get(key, 0) + c
        monic = {k: v for k, v in monic.items() if v}
        tally.check(_terms(obj["monic_F"]) == monic, "monic model mismatch")
        if published:
            R = tuple(int(c) for c in con["R"][: len(PUBLISHED_R)])
            tally.check(R == PUBLISHED_R, f"R_0..R_9 {R} != published")

    return _guard(tally, owed, rc, text, body)
