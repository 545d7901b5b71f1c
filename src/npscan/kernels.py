"""Vectorized whole-field enumeration: bulk evaluation and trace histograms.

The Horner kernels do exact int64 arithmetic.  Values stay reduced below p
between Horner steps, so the worst intermediate is bounded by e*(p-1)^2
after a coefficient convolution and by e*(e-1)*(p-1)^3 inside the
modulus-reduction step; the entry guard checks both against 2^62 and raises
BudgetExceeded for a field past the bound (F_p first fails at p = 2^31 + 11,
far above the default budget of 1e8 elements), so no input yields wrapped
numbers.  The Zech route checks the same bound, then runs its trace-form
product in float64 while its sums stay below 2^53 (exact there) and in
int64, reduced mod p after each term, beyond.

Element number k of F_{p^e} has the base-p digits of k as its coefficient
vector, least significant first, matching FiniteField.from_index.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded
from .fields import FieldPolynomial, FiniteField

_CHUNK = 1 << 16


def _int64_limit(e: int) -> int:
    """Largest q = P^e whose Horner intermediates stay below 2^62."""

    def worst(p: int) -> int:
        conv_max = e * (p - 1) ** 2 + (p - 1)
        return conv_max + (e - 1) * conv_max * (p - 1)

    lo, hi = 2, 2**32  # worst(lo) < 2^62 <= worst(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if worst(mid) < 2**62 else (lo, mid)
    return lo**e


def _reduction_rows(field: FiniteField) -> np.ndarray:
    """Row k is x^(e+k) mod modulus, k = 0..e-2, as vectors over F_p."""
    p, e, m = field.p, field.e, field.modulus
    rows = np.zeros((max(e - 1, 0), e), dtype=np.int64)
    cur = [(-m[i]) % p for i in range(e)]  # x^e mod m
    for k in range(e - 1):
        rows[k] = cur
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(e):
                cur[i] = (cur[i] + top * rows[0][i]) % p
    return rows


def _element_block(field: FiniteField, start: int, stop: int) -> np.ndarray:
    ks = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, field.e), dtype=np.int64)
    for i in range(field.e):
        out[:, i] = (ks // field.p**i) % field.p
    return out


def _mul_block(A: np.ndarray, B: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    n, e = A.shape
    if e == 1:
        return A * B % p
    conv = np.zeros((n, 2 * e - 1), dtype=np.int64)
    for i in range(e):
        col = A[:, i]
        for j in range(e):
            conv[:, i + j] += col * B[:, j]
    low = conv[:, :e]
    low += conv[:, e:] @ red
    return low % p


def eval_blocks(fbar: FieldPolynomial) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate (start_index, values) with f evaluated at every field element.

    Values come out as (n, e) coefficient matrices in enumeration order.
    A field past the int64 bound raises BudgetExceeded here, before any
    block is computed.
    """
    field = fbar.field
    p, e, q = field.p, field.e, field.q
    limit = _int64_limit(e)
    if q > limit:
        raise BudgetExceeded(q, limit)
    red = _reduction_rows(field)
    rows = fbar.int_rows()
    coeffs = np.array(rows, dtype=np.int64) if rows else np.zeros((0, e), dtype=np.int64)
    d = len(rows) - 1

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        for start in range(0, q, _CHUNK):
            stop = min(start + _CHUNK, q)
            E = _element_block(field, start, stop)
            n = stop - start
            if d < 0:
                yield start, np.zeros((n, e), dtype=np.int64)
                continue
            V = np.tile(coeffs[d], (n, 1))
            for k in range(d - 1, -1, -1):
                V = _mul_block(V, E, red, p)
                V += coeffs[k]
                V %= p
            yield start, V

    return blocks()


def trace_histogram(fbar: FieldPolynomial) -> list[int]:
    """Counts t_a = #{x in F_q : Tr(f(x)) = a}, indexed by a in 0..p-1."""
    if fbar.field.q >= ZECH_MIN_Q:
        return _trace_histogram_zech(fbar)
    return _trace_histogram_horner(fbar)


def _trace_histogram_horner(fbar: FieldPolynomial) -> list[int]:
    field = fbar.field
    p = field.p
    blocks = eval_blocks(fbar)  # checks the int64 bound before allocating
    tvec = np.array(field.trace_vector(), dtype=np.int64)
    hist = np.zeros(p, dtype=np.int64)
    for _, V in blocks:
        T = (V @ tvec) % p
        hist += np.bincount(T, minlength=p)
    return [int(v) for v in hist]


# ---------------------------------------------------------------------------
# Zech route, every q >= ZECH_MIN_Q and any coefficients.  With g a generator
# of F_q^*, x = g^(a*B + b) and H[i, j] = Tr(x^(i+j)), Tr(u*v) = u H v^T on
# coefficient rows, so each term of f gives
#
#     Tr(c_k x^k) = (c_k g^(k*a*B)) H (g^(k*b))^T.
#
# Side by side, the left factors U_k (row a) and right factors M_k (column b)
# make Tr(f(x)) - Tr(c_0) one matrix product per block of rows a: memory is
# O(d sqrt(q) e), with no q-sized table.

ZECH_MIN_Q = 1 << 12
ZECH_MAX_Q = math.inf  # no upper cap; the name stays for perfbench's tracer
_FLOAT64_EXACT = 1 << 53  # float64 sums of integers below this are exact


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _find_generator(field: FiniteField):
    """Smallest element (enumeration order) of multiplicative order q - 1; for
    e > 1 the search starts at index p, as the elements below it form F_p."""
    q = field.q
    factors = _prime_factors(q - 1)
    one = field.one()
    for k in range(field.p if field.e > 1 else 1, q):
        g = field.from_index(k)
        if all(g ** ((q - 1) // ell) != one for ell in factors):
            return g
    raise AssertionError("no generator found")  # unreachable for a field


def _mul_matrix(field: FiniteField, y) -> np.ndarray:
    """Row i is x^i * y, so a coefficient row u gives u @ this = u * y."""
    rows, x = [y], field.gen()
    for _ in range(field.e - 1):
        rows.append(rows[-1] * x)
    return np.array([r.coeffs for r in rows], dtype=np.int64)


def _powers_rows(field: FiniteField, g, count: int) -> np.ndarray:
    """Digit rows of g^0 .. g^(count-1), built by block doubling."""
    p = field.p
    rows = np.zeros((count, field.e), dtype=np.int64)
    rows[0, 0] = 1
    step, have = _mul_matrix(field, g), 1  # step multiplies by g^have
    while have < count:
        take = min(have, count - have)
        rows[have : have + take] = rows[:take] @ step % p
        step, have = step @ step % p, have + take
    return rows


def _trace_histogram_zech(fbar: FieldPolynomial) -> list[int]:
    field = fbar.field
    p, e, q = field.p, field.e, field.q
    limit = _int64_limit(e)  # bounds e*(p-1)^2 + p below 2^62
    if q > limit:
        raise BudgetExceeded(q, limit)
    terms = [(k, c) for k, c in enumerate(fbar.coeffs) if k and not c.is_zero()]
    tr0 = field.trace(fbar.coeffs[0]) if fbar.coeffs else 0
    hist = np.zeros(p, dtype=np.int64)
    hist[tr0] += 1  # x = 0 contributes Tr(c_0)
    if not terms:
        hist[tr0] += q - 1
        return [int(v) for v in hist]

    d = terms[-1][0]
    B = math.isqrt(q - 2) + 1  # ceil(sqrt(q - 1))
    A = (q - 2) // B + 1
    g = _find_generator(field)
    Z = _powers_rows(field, g, d * (B - 1) + 1)
    Y = _powers_rows(field, g**B, d * (A - 1) + 1)
    tr_xk = np.array(field.power_traces(2 * e - 1), dtype=np.int64)
    H = tr_xk[np.add.outer(np.arange(e), np.arange(e))]
    U = np.hstack([Y[k * np.arange(A)] @ _mul_matrix(field, c) % p for k, c in terms])
    M = np.vstack([(Z[k * np.arange(B)] @ H % p).T for k, _ in terms])
    width = U.shape[1]
    if width * (p - 1) ** 2 + p > _FLOAT64_EXACT:
        width = e  # int64, reduced mod p after each term
    else:
        U, M = U.astype(np.float64), M.astype(np.float64)
    rows = max(1, _CHUNK // B)
    for lo in range(0, A, rows):
        T = np.full((min(rows, A - lo), B), tr0, dtype=np.int64)
        for j in range(0, U.shape[1], width):
            T += (U[lo : lo + rows, j : j + width] @ M[j : j + width]).astype(np.int64)
            T %= p
        hist += np.bincount(T.ravel()[: q - 1 - lo * B], minlength=p)
    return [int(v) for v in hist]


def value_codes(fbar: FieldPolynomial) -> np.ndarray:
    """f(x) for every x, encoded as integers sum_i c_i p^i (fits in int64)."""
    field = fbar.field
    blocks = eval_blocks(fbar)  # checks the int64 bound before allocating
    weights = np.array([field.p**i for i in range(field.e)], dtype=np.int64)
    out = np.empty(field.q, dtype=np.int64)
    for start, V in blocks:
        out[start : start + V.shape[0]] = V @ weights
    return out


def distinct_value_count(fbar: FieldPolynomial) -> int:
    """Size of the image of fbar on its whole field."""
    return int(np.unique(value_codes(fbar)).size)


def find_first_root(field: FiniteField, int_coeffs: tuple[int, ...]) -> int:
    """Index of the first element (in enumeration order) killing the polynomial
    with the given prime-subfield coefficients; raises if there is none."""
    fbar = field.poly(list(int_coeffs))
    for start, V in eval_blocks(fbar):
        zero_rows = np.nonzero(~V.any(axis=1))[0]
        if zero_rows.size:
            return start + int(zero_rows[0])
    raise ValueError("polynomial has no root in the field")


def naive_trace_histogram(fbar: FieldPolynomial) -> list[int]:
    """Pure-Python twin of trace_histogram, for oracle tests and tiny fields."""
    field = fbar.field
    hist = [0] * field.p
    for x in field.elements():
        hist[field.trace(fbar(x))] += 1
    return hist
