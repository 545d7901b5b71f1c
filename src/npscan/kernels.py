"""Vectorized whole-field enumeration: bulk evaluation and trace histograms.

Every kernel here multiplies in F_q one way: by the e x e multiplication
matrices of _mul_matrices, whose row i is x^i times an element.  Entries
stay reduced below p between steps, so a product of a digit row and such
a matrix, plus one more digit (a Horner coefficient, a running trace), is
at most e*(p-1)^2 + (p-1).  The entry guards check that against 2^62 and
raise BudgetExceeded for a field past it (F_p first fails at
p = 2^31 + 11, F_{p^2} near q = 2.3e18; for e >= 3 the bound passes 2^63
and only the enumeration budget, 1e8 elements by default, limits q), so
no input yields wrapped numbers.  The Zech route runs its trace-form product in
float64 while its sums stay below 2^53 (exact there) and in int64, reduced
mod p after each term, beyond.  Its per-field set-up (a generator and the
trace form) is built once per field and kept in a bounded cache;
everything else is per call.

trace_histogram reads its route from the field: Horner for F_p and F_{p^2}
below ZECH_MIN_Q = 2^12, the Zech route for every other field, extension
fields of degree e >= 3 at every q.  Per call, in ms (Horner / Zech with
its per-field set-up cold / cached; random monic f with F_p coefficients,
2-core x86-64, numpy 2.4):

    field       d = 3                 d = 7
    F_{3^7}     1.24 / 0.47 / 0.14    1.78 / 0.54 / 0.21
    F_{5^5}     1.09 / 0.42 / 0.15    1.58 / 0.45 / 0.18
    F_{2^11}    3.36 / 0.66 / 0.16    4.23 / 0.74 / 0.23
    F_{7^4}     0.59 / 0.32 / 0.13    0.86 / 0.38 / 0.18
    F_{5^4}     0.18 / 0.26 / 0.10    0.27 / 0.32 / 0.14
    F_{7^3}     0.08 / 0.24 / 0.09    0.13 / 0.28 / 0.14
    F_{47^2}    0.22 / 0.29 / 0.16    0.37 / 0.45 / 0.30
    F_{2003}    0.22 / 0.28 / 0.25    0.28 / 0.32 / 0.29

Cold, the Zech route loses only on the smallest e = 3 or 4 fields, by
under 0.2 ms; a field's set-up is paid once and the cache keeps it.  Below
2^12, Horner stays ahead on F_p and about even on F_{p^2}.

Element number k of F_{p^e} has the base-p digits of k as its coefficient
vector, least significant first, matching FiniteField.from_index.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded
from .fields import FieldPolynomial, FiniteField

_CHUNK = 1 << 16


@functools.lru_cache(maxsize=64)
def _int64_limit(e: int) -> int:
    """Largest q = P^e whose products stay below 2^62: a row of reduced
    digits times an e x e matrix of them, plus one reduced digit."""

    def worst(p: int) -> int:
        return e * (p - 1) ** 2 + (p - 1)

    lo, hi = 2, 2**32  # worst(lo) < 2^62 <= worst(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if worst(mid) < 2**62 else (lo, mid)
    return lo**e


def _element_block(field: FiniteField, start: int, stop: int) -> np.ndarray:
    ks = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, field.e), dtype=np.int64)
    for i in range(field.e):
        out[:, i] = (ks // field.p**i) % field.p
    return out


def _mul_matrices(field: FiniteField, Y: np.ndarray) -> np.ndarray:
    """Matrix n has row i = x^i * Y[n], so a coefficient row u gives
    u @ matrix n = u * Y[n]; Y holds reduced digit rows."""
    p, e = field.p, field.e
    xe = np.array([-c % p for c in field.modulus[:e]], dtype=np.int64)  # x^e
    mats = np.empty((len(Y), e, e), dtype=np.int64)
    mats[:, 0] = Y
    for i in range(1, e):
        prev = mats[:, i - 1]
        mats[:, i, 0] = 0
        mats[:, i, 1:] = prev[:, :-1]
        mats[:, i] = (mats[:, i] + prev[:, -1:] * xe) % p
    return mats


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
    rows = fbar.int_rows()
    coeffs = np.array(rows, dtype=np.int64) if rows else np.zeros((0, e), dtype=np.int64)
    d = len(rows) - 1
    size = _CHUNK // e  # a block's matrices X hold _CHUNK * e entries

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        for start in range(0, q, size):
            stop = min(start + size, q)
            n = stop - start
            if d < 0:
                yield start, np.zeros((n, e), dtype=np.int64)
                continue
            X = _mul_matrices(field, _element_block(field, start, stop))
            V = np.tile(coeffs[d], (n, 1))
            for k in range(d - 1, -1, -1):
                V = (V[:, None, :] @ X)[:, 0] + coeffs[k]
                V %= p
            yield start, V

    return blocks()


def trace_histogram(fbar: FieldPolynomial) -> list[int]:
    """Counts t_a = #{x in F_q : Tr(f(x)) = a}, indexed by a in 0..p-1."""
    field = fbar.field
    if field.e <= 2 and field.q < ZECH_MIN_Q:
        return _trace_histogram_horner(fbar)
    return _trace_histogram_zech(fbar)


def _trace_histogram_horner(fbar: FieldPolynomial) -> list[int]:
    field = fbar.field
    p = field.p
    blocks = eval_blocks(fbar)  # checks the int64 bound before allocating
    tvec = np.array(field.trace_vector(), dtype=np.int64)
    hist = np.zeros(p, dtype=np.int64)
    for _, V in blocks:
        T = (V @ tvec) % p
        hist += np.bincount(T, minlength=p)
    return hist.tolist()


# ---------------------------------------------------------------------------
# Zech route: every field but F_p and F_{p^2} below ZECH_MIN_Q (see the
# module docstring), and any coefficients.  With g a generator of F_q^*,
# x = g^(a*B + b) and H[i, j] = Tr(x^(i+j)), Tr(u*v) = u H v^T on
# coefficient rows, so each term of f gives
#
#     Tr(c_k x^k) = (c_k g^(k*a*B)) H (g^(k*b))^T.
#
# Side by side, the left factors U_k (row a) and right factors M_k (column b)
# make Tr(f(x)) - Tr(c_0) one matrix product per block of rows a: memory is
# O(d sqrt(q) e), with no q-sized table.  g, g^B and H depend on the field
# alone, so _zech_field builds them once per field.  Every entry of the
# product is an integer in [0, K (p-1)^2], K its inner width.  While that
# bound is at most _FOLD_MAX (small p, as in F_{3^12} or F_{7^8}; never an
# F_p, as p >= 2^12 here) the float64 sums are counted by value and folded
# mod p once per call; otherwise each entry is reduced mod p first.

ZECH_MIN_Q = 1 << 12
ZECH_MAX_Q = math.inf  # no upper cap; the name stays for perfbench's tracer
_FLOAT64_EXACT = 1 << 53  # float64 sums of integers below this are exact
_FOLD_MAX = _CHUNK  # raw sums up to this are counted before reduction mod p
_GENERATOR_BATCH = 32  # candidates tested together by _find_generator


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


def _full_order(field: FiniteField, Y: np.ndarray, exponents: list[int]) -> np.ndarray:
    """Whether no Y[n]^k, k in exponents, is 1: square-and-multiply on the
    multiplication matrices of all rows at once."""
    p = field.p
    mats = _mul_matrices(field, Y)
    powers = np.zeros((len(exponents),) + Y.shape, dtype=np.int64)  # Y^k per k
    powers[:, :, 0] = 1
    for bit in range(max(exponents).bit_length()):
        if bit:
            mats = mats @ mats % p  # multiplication by Y^(2^bit)
        for power, k in zip(powers, exponents):
            if k >> bit & 1:
                power[:] = (power[:, None, :] @ mats)[:, 0] % p
    one = np.eye(1, field.e, dtype=np.int64)
    return ~(powers == one).all(axis=2).any(axis=0)


def _find_generator(field: FiniteField):
    """Smallest element (enumeration order) of multiplicative order q - 1,
    the first whose (q-1)/l-th power is not 1 for every prime l | q - 1.
    For e = 1 that is integer pow; for e > 1 the search starts at index p,
    as the elements below it form F_p, and tests a batch at a time."""
    p, q = field.p, field.q
    exponents = [(q - 1) // ell for ell in _prime_factors(q - 1)]
    if field.e == 1:
        return field.from_index(
            next(k for k in range(1, q) if all(pow(k, n, p) != 1 for n in exponents))
        )
    for start in range(p, q, _GENERATOR_BATCH):
        stop = min(start + _GENERATOR_BATCH, q)
        full = _full_order(field, _element_block(field, start, stop), exponents)
        if full.any():
            return field.from_index(start + int(full.argmax()))
    raise AssertionError("no generator found")  # unreachable for a field


def _powers_rows(step: np.ndarray, count: int, p: int) -> np.ndarray:
    """Digit rows of y^0 .. y^(count-1), step the multiplication matrix of
    y, built by block doubling."""
    rows = np.zeros((count, len(step)), dtype=np.int64)
    rows[0, 0] = 1
    have = 1  # step multiplies by y^have
    while have < count:
        take = min(have, count - have)
        rows[have : have + take] = rows[:take] @ step % p
        step, have = step @ step % p, have + take
    return rows


def _term_powers(step: np.ndarray, terms: list, n: int, p: int) -> list[np.ndarray]:
    """For each term degree k, the digit rows of y^(k*j), j = 0..n-1."""
    rows = _powers_rows(step, terms[-1][0] * (n - 1) + 1, p)
    return [rows[k * np.arange(n)] for k, _ in terms]


@functools.lru_cache(maxsize=32)
def _zech_field(field: FiniteField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multiplication matrices of g and g^B, g the smallest generator of
    F_q^* and B = ceil(sqrt(q - 1)), and the trace form H: built once per
    field, read-only."""
    e, q = field.e, field.q
    g = _find_generator(field)
    B = math.isqrt(q - 2) + 1
    G, GB = _mul_matrices(field, np.array([g.coeffs, (g**B).coeffs], dtype=np.int64))
    tr_xk = np.array(field.power_traces(2 * e - 1), dtype=np.int64)
    H = tr_xk[np.add.outer(np.arange(e), np.arange(e))]
    for a in (G, GB, H):
        a.flags.writeable = False
    return G, GB, H


def _trace_histogram_zech(fbar: FieldPolynomial) -> list[int]:
    field = fbar.field
    p, e, q = field.p, field.e, field.q
    limit = _int64_limit(e)
    if q > limit:
        raise BudgetExceeded(q, limit)
    terms = [(k, c) for k, c in enumerate(fbar.coeffs) if k and not c.is_zero()]
    tr0 = field.trace(fbar.coeffs[0]) if fbar.coeffs else 0
    hist = np.zeros(p, dtype=np.int64)
    hist[tr0] += 1  # x = 0 contributes Tr(c_0)
    if not terms:
        hist[tr0] += q - 1
        return hist.tolist()

    B = math.isqrt(q - 2) + 1  # ceil(sqrt(q - 1))
    A = (q - 2) // B + 1
    top = len(terms) * e * (p - 1) ** 2  # largest entry of U @ M
    exact = top + p <= _FLOAT64_EXACT  # float64 sums are exact
    dtype = np.float64 if exact else np.int64
    G, GB, H = _zech_field(field)
    C = _mul_matrices(field, np.array([c.coeffs for _, c in terms], dtype=np.int64))
    U = np.hstack([Yk @ Ck % p for Yk, Ck in zip(_term_powers(GB, terms, A, p), C)], dtype=dtype)
    M = np.vstack([(Zk @ H % p).T for Zk in _term_powers(G, terms, B, p)], dtype=dtype)
    width = U.shape[1] if exact else e  # int64: reduced mod p after each term
    fold = exact and top <= _FOLD_MAX
    counts = np.zeros(top + 1 if fold else p, dtype=np.int64)
    rows = max(1, _CHUNK // B)
    for lo in range(0, A, rows):
        if fold:  # raw sums, counted by value
            T = (U[lo : lo + rows] @ M).astype(np.int64)
        else:
            T = np.full((min(rows, A - lo), B), tr0, dtype=np.int64)
            for j in range(0, U.shape[1], width):
                T += (U[lo : lo + rows, j : j + width] @ M[j : j + width]).astype(np.int64)
                T %= p
        counts += np.bincount(T.ravel()[: q - 1 - lo * B], minlength=counts.size)
    if fold:
        np.add.at(hist, (np.arange(top + 1) + tr0) % p, counts)
    else:
        hist += counts
    return hist.tolist()


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
