"""The character-sum engines over the (t, x) grid and their vectorised helpers.

Every exact trace and moment of a family is a sum of chi(F(x, t)) over the
(t, x) grid.  ``moments._power_sums`` picks the kernel of each prime from
the shape of F mod p; every trace row below is an int64 array of length p,
and :func:`power_total` takes sum_t a_t^r from it exactly.  The second
moments of the power shapes x^n + x^h T^k need none of them:
``second_moment._brute`` sums one character sum per coset class of t, in O(p).

- :func:`first_sum_roots` gives the total over t (first moments) where
  the weight a, or c where a = 0, is a monomial alpha x^k: then the sum
  needs only the roots of D = b^2 - 4ac mod p, split into squares and
  non-squares for odd k.  The integer roots of D are split off once
  (:func:`_split_roots`) and give theirs in O(d) a prime, residues and
  characters of integers; only a cofactor of degree >= 1 takes the
  Frobenius gcd degrees, O(d^2 log p);
- :func:`first_sum_vec` gives the same total in O(p) at the primes the
  root counts leave (p | alpha or p | lead(D)) and for any other weight:
  with the sums over t and x swapped, the quadratic law makes the sum over
  t at x equal -chi(a(x)) wherever D is nonzero mod p, so one row of D
  finds the few cells where it is not;
- :func:`quadratic_power_sums` gives sum_t a_t^r in O(p^2) int8 copies
  for any F at most quadratic in T, rank-one mod p or not (the r >= 2
  moments of big_rank), by completing the square: each trace row is a
  signed sum of windows of the per-prime table chi(u^2 + d);
- :func:`correlation_row` gives every trace in O(p log p), by FFT, when
  F = c(x) + g(x) W(T) mod p (all power families, shift_square, ...); it
  returns None for any other shape;
- :func:`trace_row_vec` gives every trace in O(p^2) for any F.  It is the
  reference the others are tested against, and the path for
  deg_T F >= 3.

The two block kernels take no per-prime context: they work on a block of
primes (:func:`prime_blocks`, of BLOCK_CELLS cells for r = 1 and QUAD_CELLS
for r >= 2) at once, with the cells (p, x) of all its primes laid end to
end in flat arrays (:func:`_cells`).  For r = 1 the only rows over all
cells are D's and a's.  For r >= 2
one pass over the cells completes every square, with one batched inverse,
and each prime then runs only the windows core, :func:`_trace_windows`.

Residues are int64 values in [0, p) with p < TABLE_LIMIT = 2^26.  The
block kernels evaluate polynomials with integer coefficients by Horner's
rule in int64 (:func:`_horner_cells`), reducing only where a step could
pass 2^63, so a row of D = b^2 - 4ac, whose coefficients may have hundreds
of bits, is exact at every cell; the law at the zeros of D takes a < p,
and the products of the completed squares stay below 2p^2 < 2^53.  The
quadratic kernels sum values of chi in int8 chunks of at most 127
windows, then in int32, which is exact since |a_t| <= p < 2^31, and take
sum_t a_t^r in int64 only where p max|a_t|^r < 2^63, else from the
histogram of the a_t in Python ints (:func:`power_total`).  The dense kernel
sums its products in float64, as one BLAS product per block of t: with m
nonzero rows and m (p - 1)^2 + p < 2^53 every value it forms is an integer
below 2^53, so it is exact in any order of summation, and it refuses larger
m and p (see :func:`trace_row_vec`).  The kernels that are not a character
sum, :func:`frobenius_gcd_degrees` and the root counts of
:func:`first_sum_roots`, work across many odd primes at once, on
(d, #primes) residue arrays with the primes on the contiguous axis: in int64
below FROB_LIMIT = 2^31, summing as many products before a reduction as
2^63 allows, else in Python ints, reducing every product.  The split of D
that precedes them is exact over Z and made once per D: Fujiwara's bound B
on its roots in integers, D at every residue of one prime q > 2B, and each
lifted zero checked in Python ints (:func:`_integer_roots`), with no BLAS
or LAPACK call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .finite_field import (TABLE_LIMIT, InternalCheckError, PrimeCtx, chi_tables, is_prime,
                           quadratic_sums)

# Rows of t processed per block; keeps peak memory near 2 * CHUNK * p * 8 bytes.
CHUNK = 128

# Rows of chi(u^2 + d) that the windows core builds at a time, and the most
# windows it sums in int8; odd, so its transposed copy does not thrash the cache.
QUAD_BLOCK = 127

# Cells (prime, x) per block of first_sum_vec: the block size that kept peak
# memory where one context per prime had it (2^14 cells raised it).
BLOCK_CELLS = 1 << 13

# Cells per block of quadratic_power_sums, whose square completion holds
# about twice the int64 arrays per cell: at 2^13 cells the peak RSS of
# moments --r 2 on big_rank (g = 2, to 1000) rose 0.17 MB over one context
# per prime, at 2^12 it stayed within 0.06 MB.
QUAD_CELLS = 1 << 12

# Integer coefficients below this in absolute value enter _horner_cells as
# they are, with no per-prime residue row: a block of many primes then skips
# one np.repeat per coefficient, and the bound on the cells decides the
# reductions.  first_sum_vec on shift_square to 1500 took 0.87 times as long
# as with residue rows throughout, 0.91 at a limit of 2^12.
RAW_LIMIT = 1 << 31

# Nonzero T-coefficient rows the trace kernels accept; see trace_row_vec.
MAX_ROWS = 1 << 11

# Largest distance from an integer that a rounded FFT correlation may show.
ROUND_TOL = 0.25

# Primes per 31-bit limb up to which residues reduces an integer past int64
# in Python ints, one prime at a time, rather than by its limbs, whose cost
# grows with the limbs.  Best of 7 x 100 calls, primes from 3 on (2-core
# host): Python ints overtook the limbs near 120 primes at 70 bits (3 limbs),
# 180 at 128 bits (5), 300 at 256 bits (9), 360 at 400 bits (13) and 500 to
# 640 at 544 bits (18); at 155 primes a 544-bit integer took 27 us in Python
# ints against 55 us in limbs, at 1024 primes 149 against 125 us.
PY_RESIDUES = 32

# Largest bound on the integer roots of D for which _integer_roots looks for
# them: it evaluates D at every residue of a prime q > 2B, O(q d) array steps.
# Above it D is not split, and every prime takes the Frobenius chain.
ROOT_BOUND = 1 << 16

# Primes from which frobenius_gcd_degrees works in Python ints.  Below it a
# product of residues is below 2^62, so int64 sums k = _lazy_products(p_max)
# >= 2 of them on top of a residue before it reduces: about 9e4 at p = 10^7,
# fewer than 9 from p = 1.013e9 on, fewer than 3 from 1.754e9 on.
FROB_LIMIT = 1 << 31


def check_dense(p: int) -> None:
    """Refuse p >= TABLE_LIMIT before anything of length p is allocated."""
    if p >= TABLE_LIMIT:
        raise ValueError(f"p = {p} too large for the dense kernel (limit 2^26)")


def check_dense_range(lo: int, hi: int, dropped=frozenset()) -> None:
    """``check_dense`` of the largest prime in [lo, hi] outside ``dropped``,
    before anything is sieved.  That prime is found by walking down from hi
    with ``is_prime`` while above TABLE_LIMIT: a prime gap below 2^64 is
    under 1600, so the walk takes that many steps at most, plus one for each
    dropped prime it passes.  A hi of 2^64 or more is left to ``primes_in``,
    which refuses it."""
    p, lo = hi, max(lo, TABLE_LIMIT)
    if p >= 1 << 64:
        return
    while p >= lo and (p in dropped or not is_prime(p)):
        p -= 1
    if p >= lo:
        check_dense(p)


def horner_vec(coeffs, xs: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a coefficient list (low to high) at every entry of xs, mod p."""
    if not coeffs:
        return np.zeros(len(xs), dtype=np.int64)
    acc = np.full(len(xs), coeffs[-1] % p, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = (acc * xs + c % p) % p
    return acc


def powmod_vec(xs: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise xs^e mod p (e >= 0), with 0^0 = 1.

    Square-and-multiply from the low bit of e, in place on two arrays: the
    first factor is copied, not multiplied in, and the last square is
    skipped, so x^3 costs two products.
    """
    base = xs % p
    out = None
    while e:
        if e & 1:
            if out is None:
                out = base.copy()
            else:
                out *= base
                out %= p
        e >>= 1
        if e:
            base *= base
            base %= p
    return np.ones(len(xs), dtype=np.int64) if out is None else out


def _nonzero_terms(t_coeff_rows) -> list[tuple[int, np.ndarray]]:
    """The (j, row) pairs whose row is not None; refuses MAX_ROWS or more.

    Both trace kernels keep the bound, so the kernel chosen never decides
    whether rows are taken; the dense kernel's float64 bound comes on top.
    """
    terms = [(j, row) for j, row in enumerate(t_coeff_rows) if row is not None]
    if len(terms) >= MAX_ROWS:
        raise ValueError(
            f"{len(terms)} nonzero T-coefficient rows; the trace kernels take "
            f"fewer than {MAX_ROWS}"
        )
    return terms


def _exact_in_float(m: int, p: int) -> bool:
    """Whether m products of residues mod p, plus p, stay below 2^53."""
    return m * (p - 1) ** 2 + p < 1 << 53


def _reduce_near(a: np.ndarray, p: int, q: np.ndarray) -> None:
    """a -= floor(a * fl(1/p)) * p in place, with q (a's shape) as scratch.

    For float64 integers 0 <= a < 2^53 - p the quotient is off from a // p
    by at most one, so every step is exact and leaves a = a mod p + k p with
    k in {-1, 0, 1}, that is a value in [-p, 2p).
    """
    np.multiply(a, 1.0 / p, out=q)
    np.floor(q, out=q)
    q *= p
    a -= q


def trace_row_vec(t_coeff_rows, ctx: PrimeCtx) -> np.ndarray:
    """Traces -sum_x chi(F(x, t)) for all t = 0..p-1, as an int64 array.

    ``t_coeff_rows[j]`` holds the values at every x of the coefficient of
    T^j, as an int64 array of length p with entries in [0, p), or None when
    that coefficient vanishes mod p.  With the m nonzero rows as an m x p
    float64 matrix R and the powers t^j mod p as a p x m matrix, each block
    of t is one matrix product, F(x, t) + k p for every x, brought into
    [-p, 2p) by :func:`_reduce_near` and read from two periods of chi
    (a negative index wraps to the second period).

    Exact in float64: every entry of the product is an integer at most
    m (p - 1)^2, and with the bound m (p - 1)^2 + p < 2^53 every partial sum,
    in whatever order the BLAS adds, every q * p and every difference is an
    integer below 2^53.  Larger m and p raise ValueError before anything is
    allocated.
    """
    p = ctx.p
    terms = _nonzero_terms(t_coeff_rows)
    if not terms:
        return np.zeros(p, dtype=np.int64)
    if not _exact_in_float(len(terms), p):
        raise ValueError(
            f"{len(terms)} nonzero T-coefficient rows at p = {p}: the dense "
            "kernel is exact only while m (p - 1)^2 + p < 2^53"
        )
    ts = np.arange(p, dtype=np.int64)
    tpows = np.stack([powmod_vec(ts, j, p) for j, _ in terms], axis=1).astype(np.float64)
    rows = np.array([row for _, row in terms], dtype=np.float64)
    chi2 = np.tile(ctx.chi, 2)
    acc = np.empty((CHUNK, p))
    tmp = np.empty((CHUNK, p))
    out = np.empty(p, dtype=np.int64)
    for lo in range(0, p, CHUNK):
        hi = min(lo + CHUNK, p)
        a, b = acc[: hi - lo], tmp[: hi - lo]
        np.matmul(tpows[lo:hi], rows, out=a)
        _reduce_near(a, p, b)
        r = b.view(np.int64)
        np.copyto(r, a, casting="unsafe")
        out[lo:hi] = chi2[r].sum(axis=1, dtype=np.int64)
    return np.negative(out, out=out)


def correlation_row(t_coeff_rows, ctx: PrimeCtx) -> np.ndarray | None:
    """The traces of :func:`trace_row_vec` in O(p log p), or None.

    Applies when every row j >= 1 is lambda_j times one row g mod p, that is
    F = c(x) + g(x) W(T) with W(T) = sum_j lambda_j T^j (including the case
    with no such row, where every a_t is the same).  Then, with
    K = sum_{g(x)=0} chi(c(x)) and, over the x with g(x) != 0,

        H(v) = sum_{c(x)/g(x) = v} chi(g(x)),   C(w) = sum_v H(v) chi(v + w),

    each trace is a_t = -K - C(W(t)).  C is the cyclic correlation of H with
    chi, computed by real FFTs as the linear correlation of H with two
    periods of chi, zero-padded to the power of two >= 2p - 1 (a prime
    length would need the slower Bluestein transform).  The entries of C are
    integers of size at most p: the float result is rounded, and
    InternalCheckError is raised unless it lies within ROUND_TOL of an
    integer everywhere and the rounded C sums to 0 (sum_w chi(v + w) = 0).

    The rows are laid out as for :func:`trace_row_vec`.  The proportionality
    test is exact in int64 (lambda_j * g < p^2 < 2^52).
    """
    p = ctx.p
    chi = ctx.chi
    terms = _nonzero_terms(t_coeff_rows)
    c = terms[0][1] if terms and terms[0][0] == 0 else np.zeros(p, dtype=np.int64)
    g = None
    lam = [0] * len(t_coeff_rows)
    for j, row in terms:
        if j == 0:
            continue
        if g is None:
            nz = np.flatnonzero(row)
            if not len(nz):
                continue  # a nonzero polynomial can vanish at every x, e.g. x^p - x
            g, x0 = row, int(nz[0])
            g0_inv = pow(int(g[x0]), p - 2, p)
        lam[j] = int(row[x0]) * g0_inv % p
        if np.any((row - lam[j] * g) % p):
            return None
    if g is None:
        return np.full(p, -int(chi[c].sum(dtype=np.int64)), dtype=np.int64)
    from numpy.fft import irfft, rfft  # deferred: keeps `import hyprank` light

    on = g != 0
    K = int(chi[c[~on]].sum(dtype=np.int64))
    gs = g[on]
    ratio = c[on] * powmod_vec(gs, p - 2, p) % p
    hist = np.bincount(ratio, weights=chi[gs], minlength=p)
    n = 1 << (2 * p - 2).bit_length()
    chi2 = np.concatenate((chi, chi[:-1]))
    corr = irfft(np.conj(rfft(hist, n)) * rfft(chi2, n), n)[:p]
    rounded = np.rint(corr)
    err = float(np.abs(corr - rounded).max())
    if err > ROUND_TOL:
        raise InternalCheckError(
            f"FFT correlation at p = {p} is {err:.3g} away from an integer"
        )
    C = rounded.astype(np.int64)
    if int(C.sum()) != 0:
        raise InternalCheckError(f"FFT correlation at p = {p} does not sum to 0")
    w = horner_vec(lam, np.arange(p, dtype=np.int64), p)
    return -K - C[w]


def prime_blocks(primes, limit: int | None = None) -> list[list[int]]:
    """The primes in runs of consecutive ones of at most ``limit`` cells
    (BLOCK_CELLS by default).

    A prime has p cells, one per x; a prime of more than ``limit`` cells
    forms a block of its own.
    """
    limit = BLOCK_CELLS if limit is None else limit
    blocks, cells = [], limit
    for p in primes:
        if cells + p > limit:
            blocks.append([])
            cells = 0
        blocks[-1].append(p)
        cells += p
    return blocks


def quadratic_in_t(t_coeffs, primes) -> np.ndarray:
    """Whether deg_T F <= 2 mod p at each of the primes, as a bool array.

    ``t_coeffs[j]`` lists the integer coefficients, low to high in x and of
    any size, of the coefficient of T^j of F; every one past T^2 must
    vanish mod p.
    """
    ps = np.asarray(primes, dtype=np.int64)
    keep = np.ones(len(ps), dtype=bool)
    for coeffs in t_coeffs[3:]:
        for c in coeffs:
            keep &= residues(c, ps) == 0
    return keep


def first_sum_vec(t_coeffs, primes) -> list[int]:
    """sum_t a_t = -sum_x S_x at each prime, for F = c(x) + b(x) T + a(x) T^2.

    The sums over t and x are swapped.  Where a != 0, completing the square
    turns S_x = sum_t chi(a t^2 + b t + c) into the sum of chi(a u^2 - D / 4a),
    D = b^2 - 4ac, which the quadratic law (``finite_field.quadratic_sums``)
    gives as -chi(a) where D != 0 and (p - 1) chi(a) where D = 0.  Where
    a = 0, S_x = 0 = -chi(a) while b != 0, and D = b^2 = 0 forces b = 0,
    where t does not occur and S_x = p chi(c).  So

        sum_x S_x = p sum_{D(x) = 0} w(x) - sum_x chi(a(x)),

    with w = chi(a), or chi(c) where a = 0.

    One O(sum p) pass over the cells of a block of primes (:func:`_cells`)
    evaluates D, formed once over Z (:func:`_discriminant`; b where a = 0
    over Z, as D = b^2 has b's zeros), and a, whose characters the block's
    tables give (``finite_field.chi_tables``); one ``np.add.reduceat``
    counts the zeros of D per prime.  c is evaluated at the zeros where
    a = 0 alone.  The scans send this kernel only the primes that
    :func:`first_sum_roots` leaves, O(1) of them a family, and every prime
    of a weight that is no monomial.

    Exact in int64 for p < 2^26: a Horner row reduces before any step could
    pass 2^63 (:func:`_horner_cells`), so D's row holds D(x) mod p whatever
    the size of its integer coefficients, and every total is below p^2.
    """
    ps, offs, base, xs, mod = _cells(t_coeffs, primes)
    top = max(primes)
    c, b, a = (tuple(t_coeffs[j]) if j < len(t_coeffs) else () for j in range(3))
    disc = _discriminant(c, b, a) if any(a) else b
    zero = _horner_cells(_residue_rows(disc, ps), xs, ps, mod, top) == 0
    counts = np.add.reduceat(zero, offs, dtype=np.int64)
    chi = chi_tables(primes)
    a_row = _horner_cells(_residue_rows(a, ps), xs, ps, mod, top)
    at = np.flatnonzero(zero)
    pid = np.repeat(np.arange(len(ps)), counts)  # the prime of each zero
    zmod, zoff = ps[pid], offs[pid]
    az = a_row[at]
    # S_x + chi(a) at the zeros: the law for a u^2, (p - 1) chi(a), plus chi(a)
    jump = chi[az + zoff].astype(np.int64)
    jump += quadratic_sums(az, 0, 0, jump, zmod)
    flat = np.flatnonzero(az == 0)  # there b = 0 too, and S_x = p chi(c)
    if len(flat):
        per = np.bincount(pid[flat], minlength=len(ps))
        cz = _horner_cells(_residue_rows(c, ps), xs[at[flat]], per, zmod[flat], top)
        jump[flat] = zmod[flat] * chi[cz + zoff[flat]]
    total = np.concatenate(([0], np.cumsum(jump)))
    ends = np.cumsum(counts)
    chi_a = np.add.reduceat(chi[a_row + base], offs, dtype=np.int64)
    return (chi_a - total[ends] + total[ends - counts]).tolist()


def first_sum_roots(t_coeffs, primes) -> list[int | None]:
    """The sums of :func:`first_sum_vec` from the roots of D alone, or None
    at the primes left to it.

    Where the weight of :func:`first_sum_vec` is a monomial alpha x^k over
    Z (a, or c where a = 0 over Z), W = sum_{D(x) = 0} w(x) needs only how
    many roots D has and which of them are squares.  At a prime that
    divides neither alpha nor lead(D) (the others take None), write
    z = [p | D(0)], and N+ and N- for the nonzero roots of D mod p that are
    squares and that are not.  At x = 0 with k >= 1, a = 0 and D = b^2 = 0,
    so w(0) = chi(c(0)); hence

        W = chi(alpha) (z + N+ + N-)              for k = 0,
        W = z chi(c(0)) + chi(alpha) (N+ + N-)    for even k >= 2,
        W = z chi(c(0)) + chi(alpha) (N+ - N-)    for odd k,

    and sum_t a_t = chi(alpha) (p, p - 1 or 0 by k) - p W, whose first term
    is 0 where a = 0.  With chi(0) = 0, N+ + N- = #R - z and
    N+ - N- = sum_{s in R} chi(s), R the set of roots of D mod p.

    R comes from a split of D over Z, made once per D (:func:`_split_roots`).
    D is first divided by its content, which p does not divide, so R is
    unchanged; D is then primitive with a positive lead.  Dividing out each
    integer root r_i with its multiplicity m_i (by monic x - r_i, so within
    Z[x]) gives D = g (x - r_1)^(m_1) ... (x - r_n)^(m_n), the r_i
    distinct, g in Z[x] with no integer root and lead(g) = lead(D).  As p
    does not divide lead(D), g mod p keeps its degree, and R = S u G with S
    the residues of the r_i and G the roots of g mod p.  Let

        K_i = g(r_i) (r_i - r_1) ... (r_i - r_(i-1)),

    a nonzero integer fixed by D.  p does not divide K_i exactly where
    r_i mod p is no root of g and differs from every earlier r_j mod p, so
    the r_i with p not dividing K_i give each residue of S outside G once,
    and R is the disjoint union of those residues and G.  Hence, with G+
    and G- the nonzero roots of g mod p that are squares and that are not,

        #R = #{i : p does not divide K_i} + #G,
        sum_{s in R} chi(s) = sum_{p does not divide K_i} chi(r_i) + G+ - G-.

    #G is the column D_1 of :func:`frobenius_gcd_degrees` on g, and G+ and
    G- come from :func:`_square_root_counts`; both hold whether or not g is
    squarefree mod p, since x^p - x and x^((p - 1)/2) -+ 1 are.  Neither
    runs where g is a constant, as it is wherever D splits over Z (big_rank,
    and shift_square and linear_twist of an f with integer roots): then a
    prime costs one residue of each K_i, and for odd k Euler's criterion on
    the r_i that are no squares in Z (:func:`_integer_characters`), in
    place of the O(d^2 log p + d^3) of the Frobenius chain and its ranks.
    The characters of alpha and c(0) come from the same helper.
    ``t_coeffs`` holds the integer coefficients of T^0, T^1, T^2, as for
    :func:`first_sum_vec`.
    """
    c, b, a = (tuple(t_coeffs[j]) if j < len(t_coeffs) else () for j in range(3))
    disc = _discriminant(c, b, a) if any(a) else b
    weight = a if any(a) else c
    powers = [i for i, v in enumerate(weight) if v]
    out = [None] * len(primes)
    if len(powers) != 1 or not disc:
        return out
    k = powers[0]
    alpha = weight[k]
    ps = prime_array(primes)
    on = np.flatnonzero((residues(alpha, ps) != 0) & (residues(disc[-1], ps) != 0))
    if not len(on):
        return out
    p = ps[on]
    chi_alpha = _integer_characters([alpha], p)[0]
    disc = _primitive(tuple(disc))  # the same roots where p does not divide lead(D)
    z = residues(disc[0], p) == 0
    roots, g, keys = _split_roots(tuple(disc))
    live = np.array([residues(key, p) != 0 for key in keys], dtype=bool).reshape(len(keys), len(p))
    if k % 2 == 0:  # N+ + N- = #R - z
        count = live.sum(axis=0) - z
        if len(g) > 1:
            count += frobenius_gcd_degrees(g, p)[:, 0]
    else:  # N+ - N-, the sum of chi over R
        count = (live * _integer_characters(roots, p)).sum(axis=0)
        if len(g) > 1:
            plus, minus = _square_root_counts(g, p)
            count += plus - minus
    total = -p * chi_alpha * count
    if z.any():  # w(0) = chi(alpha) for k = 0, else chi(c(0))
        q = p[z]
        total[z] -= q * (chi_alpha[z] if k == 0 else _integer_characters([c[0] if c else 0], q)[0])
    if any(a):
        total += chi_alpha * (p if k == 0 else p - 1 if k % 2 == 0 else 0)
    for i, v in zip(on.tolist(), total.tolist()):
        out[i] = v
    return out


@functools.lru_cache(maxsize=16)
def _split_roots(f) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The distinct integer roots r_i of f, its cofactor g, and the keys K_i
    of :func:`first_sum_roots`, for f a tuple of integers, primitive with a
    positive lead.

    f = g (x - r_1)^(m_1) ... (x - r_n)^(m_n) with g in Z[x] free of integer
    roots, each root divided out with its multiplicity by exact synthetic
    division, and K_i = g(r_i) (r_i - r_1) ... (r_i - r_(i-1)), never 0.
    The roots are those of :func:`_integer_roots`, so where it finds none
    g = f, which leaves the route as exact and only slower.  Cached, as the
    scans ask once per FROB_BLOCK for the same D.
    """
    roots = _integer_roots(f)
    g = list(f)
    for r in roots:
        while True:
            quotient, rest = _divide_linear(g, r)
            if rest:
                break
            g = quotient
    keys = []
    for i, r in enumerate(roots):
        key = _divide_linear(g, r)[1]  # g(r)
        for s in roots[:i]:
            key *= r - s
        keys.append(key)
    return tuple(roots), tuple(g), tuple(keys)


def _integer_roots(f) -> list[int]:
    """The distinct integer roots of f, ascending, f a tuple of integers with
    a nonzero lead; [] for a constant, or where the bound B passes ROOT_BOUND.

    Every complex root lies in |x| <= B = 2 max_j t_j, with t_j the least
    integer such that t_j^j |f_d| >= |f_(d-j)| for j < d and
    t_d^d 2 |f_d| >= |f_0| (Fujiwara's bound, in integers).  A prime q > 2B
    then sends the integers of [-B, B] to distinct residues: D is evaluated
    at every residue of q (:func:`horner_vec`), each zero is lifted to its
    representative in (-q/2, q/2) and kept where f vanishes there over Z.
    O(q d) array steps, no BLAS.
    """
    d = len(f) - 1
    if not d:
        return []
    lead = abs(f[-1])
    half = ROOT_BOUND // 2
    bound = 0
    for j in range(1, d + 1):
        size, scale = abs(f[d - j]), lead if j < d else 2 * lead
        if half**j * scale < size:
            return []
        lo, hi = 0, half  # the least t in [0, half] with t^j scale >= size
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if mid**j * scale >= size else (mid + 1, hi)
        bound = max(bound, 2 * lo)
    q = 2 * bound + 1
    while not is_prime(q):
        q += 2
    zeros = np.flatnonzero(horner_vec(list(f), np.arange(q, dtype=np.int64), q) == 0).tolist()
    lifted = (x if 2 * x < q else x - q for x in zeros)
    return sorted(r for r in lifted if not _divide_linear(f, r)[1])


def _divide_linear(f, r: int) -> tuple[list[int], int]:
    """The quotient of f by x - r over Z and the remainder f(r), by
    synthetic division (Horner's rule) in Python ints."""
    acc, quotient = 0, []
    for c in reversed(f):
        acc = acc * r + c
        quotient.append(acc)
    rest = quotient.pop()
    return quotient[::-1], rest


def _integer_characters(values, p: np.ndarray) -> np.ndarray:
    """(v/p) for each integer v of ``values`` at each prime, as a
    (len(values), #primes) int64 array: [p does not divide v] where v is a
    square in Z, with no exponent step, else Euler's criterion, one batch
    for all the others (:func:`_characters`)."""
    res = np.array([residues(v, p) for v in values], dtype=p.dtype).reshape(len(values), len(p))
    out = (res != 0).astype(np.int64)
    odd = [i for i, v in enumerate(values) if v < 0 or math.isqrt(v) ** 2 != v]
    if odd:
        out[odd] = _characters(res[odd], p)
    return out


@functools.lru_cache(maxsize=16)
def _discriminant(c, b, a) -> list[int]:
    """The integer coefficients, low to high, of b^2 - 4ac, from those of c,
    b and a as tuples; [] when it is 0.  Cached, as every block of a scan
    asks for the same one."""
    out = [0] * max(2 * len(b), len(a) + len(c))
    for i, u in enumerate(b):
        for j, v in enumerate(b):
            out[i + j] += u * v
    for i, u in enumerate(a):
        for j, v in enumerate(c):
            out[i + j] -= 4 * u * v
    while out and not out[-1]:
        out.pop()
    return out


@functools.lru_cache(maxsize=16)
def _primitive(f) -> list[int]:
    """f divided by its content, with a positive lead; f a tuple of integers,
    not all 0.  The content of a discriminant can be most of its bits: 477
    of the 544 of big_rank's (g = 2)."""
    g = functools.reduce(math.gcd, f)
    return [v // g for v in f] if f[-1] > 0 else [-v // g for v in f]


def quadratic_power_sums(t_coeffs, r: int, primes) -> list[int]:
    """sum_t a_t^r at each prime, for F = c(x) + b(x) T + a(x) T^2.

    Completing the square where a(x) != 0 gives

        chi(F(x, t)) = chi(a) D[d][t + s],   D[d][u] = chi(u^2 + d),

    with s = b / (2a) and d = c / a - s^2 = (4ac - b^2) / (4a^2) mod p.  The
    table D depends on p alone, so each trace row is a signed sum of windows
    (slices of length p) of doubled rows of D.  Where a(x) = 0 the row of x
    is a window of chi, chi(b) chi(t + c / b), or the constant chi(c) where
    b = 0 too.  That covers every F of degree <= 2 in T, rank-one mod p or
    not.  ``t_coeffs`` is laid out as for :func:`quadratic_in_t`
    (ValueError unless deg_T F <= 2 mod every prime).

    One pass over the cells of a block of primes (:func:`_cells`) evaluates
    a, b and c at every cell (:func:`_horner_cells`, each integer
    coefficient taken once per block by :func:`_residue_rows`) and completes
    every square (:func:`_complete_square`), with one batched inverse for
    the block and chi from the block's tables end to end
    (``finite_field.chi_tables``).  Each prime then runs only the windows
    core, :func:`_trace_windows`, and :func:`power_total` sums the r-th
    powers of its traces exactly.

    Peak working memory on a block of one prime is about 590 p bytes
    (measured at p = 4001 and 10007): 3 QUAD_BLOCK p for the doubled block
    and one chunk of windows, and the rest for arrays over the cells.  That
    is under a third of the 2 CHUNK p 8 = 2048 p bytes of the float blocks
    of :func:`trace_row_vec`.
    """
    ps, offs, base, xs, mod = _cells(t_coeffs, primes)
    c, b, a = (_horner_cells(_residue_rows(t_coeffs[j] if j < len(t_coeffs) else (), ps),
                             xs, ps, mod, max(primes)) for j in range(3))
    chi = chi_tables(primes)
    cells = _complete_square(a, b, c, mod, chi, base)
    del base, xs, mod, c, b, a  # the loop holds only the cells: peak memory stays near one prime's
    out = []
    for p, lo in zip(primes, offs.tolist()):
        traces = _trace_windows(chi[lo : lo + p], *(v[lo : lo + p] for v in cells))
        out.append(power_total(traces, r))
    return out


def _cells(t_coeffs, primes):
    """The cells (p, x) of a block of odd primes below TABLE_LIMIT, laid end
    to end.

    The cells off_i .. off_i + p_i - 1 of every flat array hold
    x = 0..p_i - 1 at the i-th prime.  ``t_coeffs`` is laid out as for
    :func:`quadratic_in_t` (ValueError unless deg_T F <= 2 mod every prime;
    a caller that has routed its primes by ``quadratic_in_t`` passes
    ``t_coeffs[:3]``, which leaves nothing to check again).  Returns the
    primes, their offsets, and each cell's offset, x and prime.
    """
    check_dense(max(primes))
    ps = np.array(primes, dtype=np.int64)
    if len(t_coeffs) > 3 and not quadratic_in_t(t_coeffs, ps).all():
        raise ValueError("the quadratic-in-T kernels need deg_T F <= 2")
    offs = np.cumsum(ps) - ps
    base = _spread(offs, ps)  # the offset of each cell's prime
    xs = np.arange(sum(primes), dtype=np.int64) - base
    return ps, offs, base, xs, _spread(ps, ps)


def _residue_rows(coeffs, ps) -> list:
    """Each integer coefficient of a polynomial for :func:`_horner_cells`:
    None where it is 0, itself where |c| < RAW_LIMIT, else its residues mod
    the primes of a block (:func:`residues`)."""
    return [None if not c else c if abs(c) < RAW_LIMIT else residues(c, ps) for c in coeffs]


def _horner_cells(res, xs, counts, mod, pmax: int) -> np.ndarray:
    """A polynomial at cells, mod each cell's prime, from its coefficients as
    :func:`_residue_rows` gives them.

    The i-th prime has counts[i] cells, laid end to end: all p_i of them
    (:func:`_cells`), or any selection.  Horner's rule in place on int64,
    reducing only where the next step could pass 2^63: ``bound`` holds the
    largest absolute value a cell may have, so at p < 2^13 a quartic takes
    one reduction, at the end.  Only a constant residue row takes none.
    """
    top = pmax - 1
    acc = np.zeros(len(xs), dtype=np.int64)
    bound, raw = 0, False
    for r in reversed(res):
        size = 0 if r is None else abs(r) if isinstance(r, int) else top
        if bound:
            if bound * top + size >= 1 << 63:
                acc %= mod
                bound = top
            acc *= xs
        if isinstance(r, int):
            acc += r
            raw = True
        elif r is not None:
            acc += _spread(r, counts)
        bound = bound * top + size
    if bound > top or raw:
        acc %= mod
    return acc


def _spread(values, counts):
    """values[i] repeated counts[i] times, as one array; values[0] itself
    when there is one value, which numpy broadcasts for free."""
    return values[0] if len(values) == 1 else np.repeat(values, counts)


def _complete_square(a, b, c, mod, chi, base):
    """s, d, the sign and the kind of every cell, and the constant terms.

    Where a != 0: s = b / (2a), d = c / a - s^2 and the sign chi(a); where
    a = 0 != b: the offset c / b in s and the sign chi(b); where a = b = 0:
    chi(c) in ``const``.  The cells are those of :func:`_cells`, ``base``
    their offsets into the block's chi, and the inverses of 2a or b come
    from one batched :func:`_inverse`.  Returns (s, d, neg, square, linear,
    const).
    """
    square = a != 0
    linear = ~square & (b != 0)
    neg = chi[np.where(square, a, b) + base] < 0
    const = np.where(square | linear, 0, chi[c + base])
    inv = np.where(square, a, b)
    inv[inv == 0] = 1
    np.multiply(inv, 2, out=inv, where=square)
    inv %= mod
    inv = _inverse(inv, mod)
    s = np.where(square, b, c)
    s *= inv
    s %= mod
    d = inv  # 2 c inv - s^2, in place: the work arrays stay few
    d *= c
    d *= 2
    d -= s * s
    d %= mod
    return s, d, neg, square, linear, const


def _trace_windows(chi, s, d, neg, square, linear, const) -> np.ndarray:
    """The windows core: every trace a_t at one prime, as an int64 array.

    a_t = -sum_x chi(F(x, t)), from the cells of :func:`_complete_square`:
    a signed window of D[d] at s where a != 0 (:func:`_add_square_windows`),
    a signed window of chi at s where a = 0 != b, and the constants.
    Windows are summed in chunks of at most QUAD_BLOCK < 128, each exactly in
    int8, into an int32 row: |a_t| <= p < 2^31.
    """
    p = len(chi)
    acc = np.zeros(p, dtype=np.int32)
    if linear.any():
        chi2 = np.concatenate((chi, chi[:-1]))
        signed = _windows(np.stack((chi2, -chi2)), p)  # row 1 for chi(b) = -1
        _add_windows(acc, signed, neg[linear].astype(np.intp), s[linear], np.add)
    if square.any():
        _add_square_windows(acc, d[square], s[square], neg[square], chi)
    out = np.negative(acc, dtype=np.int64)
    out -= int(const.sum(dtype=np.int64))
    return out


def power_total(traces: np.ndarray, r: int) -> int:
    """sum_t a_t^r over an int64 trace row, exact: in int64 where
    p max|a_t|^r < 2^63, else from the histogram of the values, in Python
    ints.  The one place a trace row is raised to the r-th power."""
    if len(traces) * int(np.abs(traces).max()) ** r < 1 << 63:
        return int((traces**r).sum())
    values, counts = np.unique(traces, return_counts=True)
    return sum(n * v**r for v, n in zip(values.tolist(), counts.tolist()))


def _add_square_windows(acc, d, s, neg, chi) -> None:
    """acc[t] += sum_i (-1 if neg[i] else 1) chi((t + s[i])^2 + d[i]).

    The terms are taken by block of d and, within a block, by sign; a block
    of the table is built once, for the first of its two runs.  Column u of
    a block of rows d0 <= d < d0 + QUAD_BLOCK is the slice of chi (extended
    periodically) at d0 + u^2, so a block is (p + 1) / 2 row copies, one int8
    transpose and :func:`_mirror_double`, with no per-point gather and no
    multiply.
    """
    p = len(chi)
    E = QUAD_BLOCK
    h = (p + 1) // 2
    key = d // E * 2 + neg
    order = np.argsort(key, kind="stable")
    key, d, s = key[order], d[order], s[order]
    starts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()]
    # column u of the block of rows d0.. is chi_ext[d0 + u^2 : d0 + u^2 + E]
    chi_ext = np.resize(chi, 2 * p + E)
    columns = np.ndarray((2 * p, E), np.int8, buffer=chi_ext, strides=(1, 1))
    sq = np.arange(h, dtype=np.int64) ** 2 % p
    words, block, windows = _square_block(p)
    built = -1
    for lo, hi in zip(starts, starts[1:] + [len(key)]):
        blk, negate = divmod(int(key[lo]), 2)
        d0 = blk * E
        if blk != built:
            block[:, :h] = columns[d0 + sq].T
            _mirror_double(words, block)
            built = blk
        _add_windows(acc, windows, d[lo:hi] - d0, s[lo:hi], np.subtract if negate else np.add)


def _square_block(p: int):
    """An empty block of QUAD_BLOCK rows of the doubled table: the uint64
    words it lies in, the (QUAD_BLOCK, 2p - 1) int8 block and its windows.
    Each row is padded to whole words, with column h = (p + 1) / 2 at the
    start of a word."""
    lead = -((p + 1) // 2) % 8
    words = np.empty((QUAD_BLOCK, (lead + 2 * p + 6) // 8), dtype=np.uint64)
    return words, words.view(np.int8)[:, lead : lead + 2 * p - 1], _windows(words, p, lead)


def _mirror_double(words, block) -> None:
    """Columns h.. of a block of :func:`_square_block` from its columns 0..h - 1.

    The mirror D[d][p - u] = D[d][u] fills columns h..p - 1, then the
    doubling copy columns p..2p - 2.  The mirror runs on 8-byte words: the
    words left of column h, in reverse order and each byteswapped, are the
    columns right of it, and the last at most 7 columns are copied byte by
    byte.  numpy reverses an int8 copy one element at a time.
    """
    p = (block.shape[1] + 1) // 2
    h = (p + 1) // 2
    n, mid = (h - 1) // 8, (-h % 8 + h) // 8  # whole words of the mirror; column h's word
    mirror = words[:, mid : mid + n]
    mirror[...] = words[:, mid - n : mid][:, ::-1]
    mirror.byteswap(inplace=True)
    block[:, h + 8 * n : p] = block[:, h - 1 - 8 * n : 0 : -1]
    block[:, p:] = block[:, : p - 1]


def _windows(buf: np.ndarray, p: int, offset: int = 0) -> np.ndarray:
    """The read-only view w[i, o] = the bytes o .. o + p - 1 of row i of the
    C-contiguous ``buf``, counted from byte ``offset`` of the row; a row holds
    at least offset + 2p - 1 bytes.  A buffer view, which numpy builds several
    times faster than ``as_strided`` does."""
    w = np.ndarray((len(buf), p, p), np.int8, buffer=buf, offset=offset,
                   strides=(buf.strides[0], 1, 1))
    w.flags.writeable = False
    return w


def _add_windows(acc, windows, rows, offs, add) -> None:
    """add(acc, sum_i windows[rows[i], offs[i]]) in place, add being np.add or np.subtract.

    The windows hold entries in {-1, 0, 1} and are read QUAD_BLOCK at a time,
    each chunk summed in int8, which is exact for at most 127 of them.
    """
    for lo in range(0, len(rows), QUAD_BLOCK):
        part = windows[rows[lo : lo + QUAD_BLOCK], offs[lo : lo + QUAD_BLOCK]]
        add(acc, part.sum(axis=0, dtype=np.int8), out=acc)


def frobenius_gcd_degrees(f, primes, depth: int = 1) -> np.ndarray:
    """D_i = deg gcd(x^(p^i) - x, f mod p) for i = 1..depth, as a (#primes, depth) array.

    ``f`` lists the integer coefficients, low to high and of any size, of a
    polynomial of degree d >= 1 whose lead no prime divides; every prime is
    odd.  The residues mod f-bar, the monic f mod p, are coefficient-major
    (d, #primes) arrays, so every array operation runs along the primes:
    x^p by :func:`_x_power`, and x^(p^i) as x^(p^(i-1)) composed with x^p.
    D_i is the kernel dimension of the multiplication by h = x^(p^i) - x on
    F_p[x]/(f-bar) (:func:`_gcd_degrees`).  Below FROB_LIMIT the rows are
    int64 and :func:`_mulmod` sums up to k = (2^63 - 1 - p_max) // (p_max - 1)^2
    products before it reduces; from FROB_LIMIT on they are Python ints,
    and k = 1 reduces every product.
    """
    p, neg_m, k = _residue_ring(f, primes)
    one = np.zeros_like(neg_m)
    one[0] = 1
    x = _times_x(one, neg_m, p)  # x mod f-bar, also for d = 1
    xp = _x_power(p, neg_m, p, k)
    out = np.empty((len(p), depth), dtype=np.int64)
    for i in range(depth):
        y = _compose(y, xp, neg_m, p, k) if i else xp
        out[:, i] = _gcd_degrees((y - x) % p, neg_m, p)
    return out


def _square_root_counts(f, primes) -> tuple[np.ndarray, np.ndarray]:
    """N+ and N-: how many distinct nonzero roots of f mod p are squares,
    and how many are not, at each prime; f as for :func:`frobenius_gcd_degrees`.

    A nonzero root r is a square exactly where r^((p - 1)/2) = 1, so
    N+- = deg gcd(f mod p, h -+ 1) with h = x^((p - 1)/2) mod f-bar
    (:func:`_x_power`).  Both are kernel dimensions (:func:`_gcd_degrees`),
    ranked one after the other, so the rank holds one (d, d, #primes)
    matrix at a time.
    """
    p, neg_m, k = _residue_ring(f, primes)
    h = _x_power(p >> 1, neg_m, p, k)
    h[0] = (h[0] - 1) % p
    plus = _gcd_degrees(h, neg_m, p)
    h[0] = (h[0] + 2) % p
    return plus, _gcd_degrees(h, neg_m, p)


def prime_array(primes) -> np.ndarray:
    """The primes as int64 below FROB_LIMIT, else as Python ints."""
    return np.asarray(primes, dtype=np.int64 if np.max(primes) < FROB_LIMIT else object)


def _residue_ring(f, primes):
    """F_p[x]/(f-bar) at each prime: the primes (:func:`prime_array`),
    neg_m with f-bar = x^d - neg_m(x) as (d, #primes) residues, and the
    products :func:`_mulmod` may sum before it reduces."""
    p = prime_array(primes)
    inv = 1 if f[-1] == 1 else _inverse(residues(f[-1], p), p)
    neg_m = np.stack([-residues(c, p) * inv % p for c in f[:-1]])
    return p, neg_m, _lazy_products(int(p.max()))


def _x_power(e: np.ndarray, neg_m: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """x^e mod the monic x^d - neg_m(x), with one exponent e >= 0 a prime.

    Square-and-multiply over the bits of max(e), with a per-prime mask for
    the multiplication by x.
    """
    y = np.zeros_like(neg_m)
    y[0] = 1
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        y = _mulmod(y, y, neg_m, p, k)
        y = np.where((e >> bit) & 1 == 1, _times_x(y, neg_m, p), y)
    return y


def _gcd_degrees(h: np.ndarray, neg_m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """deg gcd(h, f-bar) at each prime, f-bar = x^d - neg_m(x), for (d, #primes) residues h.

    That is the kernel dimension of the multiplication by h on
    F_p[x]/(f-bar): d minus the rank of the matrix of rows h x^j, which
    come from :func:`_times_x`.
    """
    d = len(h)
    mult = np.empty((d, *h.shape), dtype=h.dtype)
    mult[0] = h
    for j in range(1, d):
        mult[j] = _times_x(mult[j - 1], neg_m, p)
    return d - _rank(mult, p)


def _lazy_products(pmax: int) -> int:
    """How many products of residues mod p <= pmax a sum on top of a residue may take.

    The largest k with k (pmax - 1)^2 + pmax < 2^63, which keeps int64 exact
    (k >= 2 below FROB_LIMIT); 1 where there is none, for the Python ints.
    """
    return max(1, ((1 << 63) - 1 - pmax) // (pmax - 1) ** 2)


def _rank(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rank of each (d, d) residue matrix a[:, :, k] mod p[k]; overwrites a.

    Fraction-free elimination by columns c: each prime's pivot is its first
    unused row nonzero at c, and every other unused row r becomes
    pivot_c * r - r_c * pivot, with no inverse.  Column c and the pivot
    row are reduced mod p before they are used, and the other columns only
    once the next step could pass 2^63 (``bound`` holds the largest
    absolute value an entry may have): below p = 2^10 that is every fifth
    column.  Python-int matrices are reduced at every step.  The rows above
    the first unused row of every prime are left alone: no step reads them
    again.
    """
    d, ks = len(a), np.arange(a.shape[2])
    free = np.ones((d, len(ks)), dtype=bool)  # rows not yet taken as a pivot
    top = int(p.max()) - 1
    room = (1 << 63) - 1 if a.dtype == np.int64 else 0
    bound = top
    for c in range(d):
        lo = int(free.argmax(axis=0).min())  # rows above lo are pivots at every prime
        col = a[lo:, c]
        if bound > top:
            col %= p
        nonzero = (col != 0) & free[lo:]
        found = nonzero.any(axis=0)
        r = nonzero.argmax(axis=0) + lo
        free[r, ks] &= ~found
        cleared = (free[lo:] & found)[:, None]
        rest = a[lo:, c + 1 :]
        if (bound + top) * top > room:
            rest %= p
            bound = top
        pivot = a[r, c + 1 :, ks].T
        if bound > top:
            pivot %= p
        rest *= np.where(cleared, a[r, c, ks], 1)
        rest -= np.where(cleared, col[:, None], 0) * pivot
        bound = (bound + top) * top
    return d - free.sum(axis=0)


def residues(c: int, p: np.ndarray) -> np.ndarray:
    """c mod p for an integer c of any size.

    In one array step below 2^63 in absolute value.  Beyond, at each prime
    in Python ints for at most PY_RESIDUES primes per 31-bit limb of c,
    else by its limbs from the top: one limb costs three array steps, which
    pays off only across many primes.
    """
    if abs(c) < 1 << 63:
        return c % p
    if len(p) <= PY_RESIDUES * -(-abs(c).bit_length() // 31):
        return np.array([c % q for q in p.tolist()], dtype=p.dtype)
    r = np.zeros_like(p)
    a = abs(c)
    for shift in range(31 * ((a.bit_length() - 1) // 31), -1, -31):
        r = (r * (1 << 31) + ((a >> shift) & ((1 << 31) - 1))) % p
    return r if c >= 0 else -r % p


def _inverse(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^(p-2) mod p, the inverse of each nonzero residue; overwrites a."""
    return _power(a, p - 2, p)


def _characters(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(a/p) at each prime, for residues a, by Euler's criterion; overwrites a."""
    e = _power(a, p >> 1, p)
    return np.where(e == p - 1, -1, e)


def _power(a: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^e mod p at each prime, by per-prime bits of e; overwrites a and e.
    Every step is in place, so the work arrays are a, the result and e."""
    out = np.ones_like(a)
    while e.any():
        odd = e & 1 == 1
        np.multiply(out, a, out=out, where=odd)
        np.remainder(out, p, out=out, where=odd)
        a *= a
        a %= p
        e >>= 1
    return out


def _mulmod(a: np.ndarray, b: np.ndarray, neg_m: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """a * b mod the monic x^d - neg_m(x); all (d, #primes) residues.

    Each coefficient of the product is a sum of products below (p - 1)^2,
    reduced only once it could hold more than k of them on top of a residue
    (``load`` counts them): with k (p_max - 1)^2 + p_max < 2^63 that is exact
    in int64.  The coefficients of x^(2d-2) .. x^d are folded down, each one
    reduced first, by x^c = x^(c-d) neg_m(x).
    """
    d = len(a)
    prod = np.zeros((2 * d - 1, a.shape[1]), dtype=a.dtype)
    load = 0
    for i in range(d):
        if load == k:
            prod %= p
            load = 0
        prod[i : i + d] += a[i] * b
        load += 1
    for c in range(2 * d - 2, d - 1, -1):
        if load == k:
            prod[:c] %= p
            load = 0
        prod[c - d : c] += prod[c] % p * neg_m
        load += 1
    return prod[:d] % p


def _times_x(y: np.ndarray, neg_m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * y mod the monic x^d - neg_m(x); one product per coefficient, then one reduction."""
    z = y[-1] * neg_m
    z[1:] += y[:-1]
    z %= p
    return z


def _compose(g: np.ndarray, h: np.ndarray, neg_m: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """g(h) mod the monic x^d - neg_m(x), by Horner's rule."""
    acc = np.zeros_like(g)
    acc[0] = g[-1]
    for c in range(len(g) - 2, -1, -1):
        acc = _mulmod(acc, h, neg_m, p, k)
        acc[0] = (acc[0] + g[c]) % p
    return acc
