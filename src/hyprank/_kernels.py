"""The character-sum engines over the (t, x) grid and their vectorised helpers.

Every exact trace and second moment in the package is a sum of chi(F(x, t))
over the (t, x) grid.  Three kernels compute it, chosen by the caller from
the shape of F mod p:

- :func:`first_sum_vec` gives the total over t in O(p) when F is at most
  quadratic in T (first moments);
- :func:`correlation_row` gives every trace in O(p log p), by FFT, when
  F = c(x) + g(x) W(T) mod p (all power families, shift_square, ...); it
  returns None for any other shape;
- :func:`trace_row_vec` gives every trace in O(p^2) for any F.  It is the
  reference the other two are tested against.

Residues are int64 values in [0, p) with p < TABLE_LIMIT = 2^26.  The one
kernel that is not a character sum, :func:`frobenius_rows`, works across
many primes at once, each below FROB_LIMIT = 2^31.
"""

from __future__ import annotations

import numpy as np

from .finite_field import TABLE_LIMIT, InternalCheckError, PrimeCtx

# Rows of t processed per block; keeps peak memory near 2 * CHUNK * p * 8 bytes.
CHUNK = 128

# Nonzero T-coefficient rows the trace kernels accept; see trace_row_vec.
MAX_ROWS = 1 << 11

# Largest distance from an integer that a rounded FFT correlation may show.
ROUND_TOL = 0.25

# frobenius_rows reduces after every product, so residues below 2^31 keep
# each product below 2^62 and each sum of d reduced terms far below 2^63.
FROB_LIMIT = 1 << 31


def check_dense(p: int) -> None:
    """Refuse p >= TABLE_LIMIT before anything of length p is allocated."""
    if p >= TABLE_LIMIT:
        raise ValueError(f"p = {p} too large for the dense kernel (limit 2^26)")


def horner_vec(coeffs, xs: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a coefficient list (low to high) at every entry of xs, mod p."""
    if not coeffs:
        return np.zeros(len(xs), dtype=np.int64)
    acc = np.full(len(xs), coeffs[-1] % p, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = (acc * xs + c % p) % p
    return acc


def powmod_vec(xs: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise xs^e mod p (e >= 0), with 0^0 = 1."""
    out = np.ones(len(xs), dtype=np.int64)
    base = xs % p
    while e:
        if e & 1:
            out = (out * base) % p
        base = (base * base) % p
        e >>= 1
    return out


def _nonzero_terms(t_coeff_rows) -> list[tuple[int, np.ndarray]]:
    """The (j, row) pairs whose row is not None; refuses MAX_ROWS or more.

    The bound is the dense kernel's int64 limit.  The correlation kernel
    keeps it too, so the kernel chosen never decides whether rows are taken.
    """
    terms = [(j, row) for j, row in enumerate(t_coeff_rows) if row is not None]
    if len(terms) >= MAX_ROWS:
        raise ValueError(
            f"{len(terms)} nonzero T-coefficient rows; the dense kernel is exact "
            f"only below {MAX_ROWS}"
        )
    return terms


def trace_row_vec(t_coeff_rows, ctx: PrimeCtx) -> list[int]:
    """Traces -sum_x chi(F(x, t)) for all t = 0..p-1.

    ``t_coeff_rows[j]`` holds the values at every x of the coefficient of
    T^j, as an int64 array of length p with entries in [0, p), or None when
    that coefficient vanishes mod p.  For each block of t the engine forms
    sum_j row_j(x) * (t^j mod p) over the nonzero rows and reduces mod p
    once.  This is exact in int64: p < 2^26 makes every product < 2^52, and
    fewer than 2^11 of them sum to less than 2^63.
    """
    p = ctx.p
    chi = ctx.chi
    terms = _nonzero_terms(t_coeff_rows)
    if not terms:
        return [0] * p
    ts = np.arange(p, dtype=np.int64)
    tpows = [powmod_vec(ts, j, p)[:, None] for j, _ in terms]
    rows = [row for _, row in terms]
    acc = np.empty((CHUNK, p), dtype=np.int64)
    tmp = np.empty((CHUNK, p), dtype=np.int64)
    out = np.empty(p, dtype=np.int64)
    for lo in range(0, p, CHUNK):
        hi = min(lo + CHUNK, p)
        a, b = acc[: hi - lo], tmp[: hi - lo]
        np.multiply(rows[0], tpows[0][lo:hi], out=a)
        for row, tj in zip(rows[1:], tpows[1:]):
            np.multiply(row, tj[lo:hi], out=b)
            a += b
        np.remainder(a, p, out=a)
        out[lo:hi] = chi[a].sum(axis=1, dtype=np.int64)
    return np.negative(out).tolist()


def correlation_row(t_coeff_rows, ctx: PrimeCtx) -> list[int] | None:
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
        return [-int(chi[c].sum(dtype=np.int64))] * p
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
    return (-K - C[w]).tolist()


def first_sum_vec(t_coeff_rows, ctx: PrimeCtx) -> int:
    """sum_t a_t = -sum_x S_x for F = c(x) + b(x) T + a(x) T^2, in O(p).

    The sums over t and x are swapped: S_x = sum_t chi(a t^2 + b t + c) is
    the closed form of ``finite_field.quadratic_char_sum`` (extended to
    a = b = 0), evaluated at every x at once --

        (p-1) chi(a)   if a != 0 and p | b^2 - 4ac,
        -chi(a)        if a != 0 and p does not divide b^2 - 4ac,
        0              if a = 0 and b != 0 (a complete linear sum),
        p chi(c)       if a = b = 0 (t does not occur).

    ``t_coeff_rows`` is laid out as for :func:`trace_row_vec`; rows 0, 1, 2
    are c, b, a, and a missing or None row counts as zero.  Exact in int64:
    p < 2^26 gives b^2 < 2^52 and 4ac < 2^54, and |S_x| <= p sums to < 2^52.
    """
    if any(row is not None for row in t_coeff_rows[3:]):
        raise ValueError("the swapped first-moment sum needs deg_T F <= 2")
    p = ctx.p
    chi = ctx.chi
    zero = np.zeros(p, dtype=np.int64)
    c, b, a = (
        t_coeff_rows[j] if j < len(t_coeff_rows) and t_coeff_rows[j] is not None else zero
        for j in range(3)
    )
    chi_a = chi[a].astype(np.int64)
    disc_zero = (b * b - 4 * a * c) % p == 0
    # chi(a) = 0 where a = 0, so these terms already give S_x = 0 there.
    quad = np.where(disc_zero, (p - 1) * chi_a, -chi_a).sum(dtype=np.int64)
    const = chi[c[(a == 0) & (b == 0)]].sum(dtype=np.int64)
    return -(int(quad) + p * int(const))


def frobenius_rows(f, primes, depth: int = 1) -> np.ndarray:
    """x^(p^i) mod the monic reduction of f, for i = 1..depth, at every prime.

    ``f`` lists the integer coefficients of a polynomial of degree d >= 1,
    low to high and of any size; no prime may divide its leading
    coefficient, and every prime must be odd and below FROB_LIMIT.  Returns
    int64 of shape (#primes, depth, d): ``out[k, i - 1]`` holds the
    coefficients, low to high, of x^(p^i) mod f at p = primes[k].

    Each prime is one int64 row of residues, and its temporaries are a few
    such rows, so callers bound memory by passing the primes in blocks.
    x^p comes from square-and-multiply over the bits of p, high to low,
    where a per-prime mask picks which rows take the multiplication by x;
    x^(p^i) is x^(p^(i-1)) composed with x^p, since g(x)^p = g(x^p) over
    F_p.  Every product is reduced mod p at once, which is what makes
    p < 2^31 exact.
    """
    d = len(f) - 1
    p = np.asarray(primes, dtype=np.int64).reshape(-1, 1)
    out = np.empty((len(p), depth, d), dtype=np.int64)
    inv = _inverse(_residues(f[-1], p), p)
    m = np.concatenate([_residues(c, p) * inv % p for c in f[:-1]], axis=1)
    y = np.zeros((len(p), d), dtype=np.int64)
    y[:, 0] = 1
    for bit in range(int(p.max()).bit_length() - 1, -1, -1):
        y = _mulmod(y, y, m, p)
        y = np.where((p >> bit) & 1 == 1, _times_x(y, m, p), y)
    xp = y
    for i in range(depth):
        out[:, i] = y
        if i + 1 < depth:
            y = _compose(y, xp, m, p)
    return out


def _residues(c: int, p: np.ndarray) -> np.ndarray:
    """c mod p for an integer c of any size, read in 31-bit limbs from the top."""
    r = np.zeros_like(p)
    a = abs(c)
    for shift in range(31 * ((a.bit_length() - 1) // 31), -1, -31):
        r = (r * (1 << 31) + ((a >> shift) & ((1 << 31) - 1))) % p
    return r if c >= 0 else -r % p


def _inverse(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^(p-2) mod p, the inverse of each nonzero residue, by per-prime bits of p - 2."""
    e = p - 2
    out = np.ones_like(a)
    while e.any():
        out = np.where(e & 1 == 1, out * a % p, out)
        a = a * a % p
        e = e >> 1
    return out


def _mulmod(a: np.ndarray, b: np.ndarray, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod the monic x^d + m(x), row by row; all rows (n, d) residues."""
    d = a.shape[1]
    prod = np.zeros((len(a), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        prod[:, i : i + d] += a[:, i : i + 1] * b % p
    for k in range(2 * d - 2, d - 1, -1):  # x^k = x^(k-d) * (-m(x))
        prod[:, k - d : k] -= prod[:, k : k + 1] % p * m % p
    return prod[:, :d] % p


def _times_x(y: np.ndarray, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * y mod the monic x^d + m(x), row by row."""
    z = np.zeros_like(y)
    z[:, 1:] = y[:, :-1]
    return (z - y[:, -1:] * m % p) % p


def _compose(g: np.ndarray, h: np.ndarray, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """g(h) mod the monic x^d + m(x), row by row, by Horner's rule."""
    acc = np.zeros_like(g)
    acc[:, 0] = g[:, -1]
    for k in range(g.shape[1] - 2, -1, -1):
        acc = _mulmod(acc, h, m, p)
        acc[:, 0] = (acc[:, 0] + g[:, k]) % p[:, 0]
    return acc
