"""The character-sum engines over the (t, x) grid and their vectorised helpers.

Every exact trace and second moment in the package is a sum of chi(F(x, t))
over the (t, x) grid.  :func:`trace_row_vec` is the one place that sum runs
in O(p^2); :func:`first_sum_vec` gives its total over t in O(p) when F is at
most quadratic in T.  Residues are int64 values in [0, p) with
p < TABLE_LIMIT = 2^26.
"""

from __future__ import annotations

import numpy as np

from .finite_field import TABLE_LIMIT, PrimeCtx

# Rows of t processed per block; keeps peak memory near 2 * CHUNK * p * 8 bytes.
CHUNK = 128

# Nonzero T-coefficient rows the engine accepts; see trace_row_vec.
MAX_ROWS = 1 << 11


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
    terms = [(j, row) for j, row in enumerate(t_coeff_rows) if row is not None]
    if len(terms) >= MAX_ROWS:
        raise ValueError(
            f"{len(terms)} nonzero T-coefficient rows; the dense kernel is exact "
            f"only below {MAX_ROWS}"
        )
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
