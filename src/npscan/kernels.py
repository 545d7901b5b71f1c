"""Vectorized whole-field enumeration: bulk evaluation and trace histograms.

Every kernel here multiplies in F_q one way: by the e x e multiplication
matrices of _mul_matrices, whose row i is x^i times an element.  Entries
stay reduced below p between steps, so a product of a digit row and such
a matrix, plus one more digit (a Horner coefficient, a running trace), is
at most e*(p-1)^2 + (p-1).  The Horner guard checks that against 2^62 and
raises BudgetExceeded for a field past it (F_p first fails at
p = 2^31 + 11, F_{p^2} near q = 2.3e18; for e >= 3 the bound passes 2^63
and only the enumeration budget, 1e8 elements by default, limits q), so
no input yields wrapped numbers.

trace_histogram sends every F_p, and F_{p^2} below ZECH_MIN_Q = 2^12, to
Horner, and every other field, so every e >= 3, to the Zech route.  That
route counts Tr(f(x)) as a product of two factors of p^(e//2) and
p^(e - e//2) rows (see the comment above ZECH_MIN_Q) and takes two
Frobenius identities, Tr(y^p) = Tr(y) and, with B = p^(e//2),
g^(a*B) = sigma(g^a) for the linear map sigma(y) = y^B:

* Tr(c x^(p j)) = Tr(c^(1/p) x^j), so a term whose degree p divides
  merges into a lower one (x^3 and x^6 into x and x^2 for p = 3), and
  merged terms that cancel drop out;
* both factors come from one table of powers g^(k*j) per term degree k,
  for every e >= 2; for even e, sigma has order 2, and when every
  coefficient is fixed by sigma (every F_p coefficient is) the product
  is symmetric and only its upper half is computed.

Its sums are exact: float32 while they stay below _FOLD_MAX (then counted
by value and folded mod p once per call), float64 below 2^53.  The Zech
guard checks K terms' sums against 2^53, which every field below about
4.5e15 / K elements passes, past any budget that can be enumerated;
beyond it the route raises BudgetExceeded before any work.  Its
per-field set-up (a generator, the trace form, sigma) is cached; its
power tables (at most 1.29 MB each under the default budget, see
_term_rows), like everything else, are built per call.

Per call, in ms (Horner / Zech with its set-up cold / warm; random monic
f with F_p coefficients, the median of 5 rounds of medians of 41 calls,
11 for F_{101^3}, one 2-core x86-64 machine, numpy 2.4, one BLAS thread):

    field       d = 3                   d = 7
    F_{3^7}     2.48 / 0.79 / 0.37      3.41 / 1.30 / 0.48
    F_{5^5}     2.05 / 1.01 / 0.36      2.91 / 1.10 / 0.40
    F_{2^11}    6.46 / 1.83 / 0.40      8.70 / 1.95 / 0.53
    F_{7^4}     1.28 / 0.92 / 0.32      1.93 / 1.02 / 0.41
    F_{5^4}     0.41 / 0.73 / 0.24      0.60 / 0.86 / 0.32
    F_{7^3}     0.21 / 0.71 / 0.26      0.30 / 0.42 / 0.19
    F_{47^2}    0.33 / 0.43 / 0.24      0.83 / 1.08 / 0.67
    F_{101^3}   371.86 / 12.67 / 11.85  591.37 / 17.62 / 16.36

Cold, the Zech route loses only on the smallest e = 3 or 4 fields, by up
to 0.5 ms; warm, only on F_{7^3} at d = 3, by 0.05 ms.  Below 2^12 it is
behind Horner on F_{p^2} when cold, as a scan meets each prime's field,
and ahead when warm.  An F_p never takes it: its tables would have p
rows, and Horner takes 5 ms at p = 50023.

Element number k of F_{p^e} has the base-p digits of k as its coefficient
vector, least significant first, matching FiniteField.from_index.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BudgetExceeded
from .fields import FieldElement, FieldPolynomial, FiniteField

_CHUNK = 1 << 16


_INT64_SAFE = 1 << 62  # Horner's int64 entries stay below this
_FLOAT64_EXACT = 1 << 53  # float64 sums of integers below this are exact


@functools.lru_cache(maxsize=64)
def _q_limit(e: int, terms: int, ceiling: int) -> int:
    """Largest q = P^e whose sums stay below ceiling: a sum of `terms`
    products of a row of reduced digits and an e x e matrix of them, plus
    one reduced digit."""

    def worst(p: int) -> int:
        return terms * e * (p - 1) ** 2 + (p - 1)

    lo, hi = 2, 2**32  # worst(lo) < ceiling <= worst(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if worst(mid) < ceiling else (lo, mid)
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
    limit = _q_limit(e, 1, _INT64_SAFE)
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
    if field.e == 1 or field.e == 2 and field.q < ZECH_MIN_Q:
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
        np.add.at(hist, T, 1)
    return hist.tolist()


# ---------------------------------------------------------------------------
# Zech route: every field but F_p, and F_{p^2} below ZECH_MIN_Q (see the
# module docstring), with any coefficients.  Let g generate F_q^*, set
# B = p^(e//2) and A = q / B = p^(e - e//2), write x = g^(a*B + b) with
# a < A, b < B, and let H[i, j] = Tr(x^(i+j)), so Tr(u*v) = u H v^T on
# coefficient rows.  Since B is a power of p, sigma(y) = y^B is a linear
# map S on digit rows, and g^(k*a*B) = sigma(g^(k*a)).  So each term of f
# gives
#
#     Tr(c_k x^k) = (g^(k*a) S C_k H) (g^(k*b))^T,    C_k: times c_k,
#
# and with Z_k the one table of digit rows of g^(k*j), j < A, the left
# factor of a block of rows [lo, hi) is Z_k[lo:hi] (S C_k H) and the right
# factor is Z_k[:B]^T.  Side by side over k they make Tr(f(x)) - Tr(c_0)
# one matrix product per block: memory is O(d A e), with no q-sized table.
# A * B = q, one more than the q - 1 powers of g: the last entry
# (A-1, B-1) is k = q - 1, x = 1 a second time, and is dropped.
#
# Frobenius.  First, Tr(c x^(p j)) = Tr((c^(1/p) x^j)^p) = Tr(c^(1/p) x^j),
# so _merged_terms moves each term down until p does not divide its degree:
# K, the number of terms, shrinks (7 -> 5 for p = 3, d = 7).  Second, for
# even e, A = B and sigma is the Frobenius of F_q over F_{p^(e/2)}, of
# order 2.  If also sigma(c_k) = c_k for all k, then
# T[a, b] = Tr(c_k sigma(g^(k*a)) g^(k*b)) is Tr of its own sigma-image,
# T[b, a]: a block of rows [lo, hi) computes only columns b >= lo, counts
# the square [lo, hi)^2 once and the columns b >= hi twice, and drops
# (A-1, A-1).
#
# Every entry of the product is an integer in [0, K e (p-1)^2].  While that
# bound is at most _FOLD_MAX (small p, as in F_{3^12} or F_{7^8}) the
# float32 sums are counted by value and folded mod p once per call;
# otherwise each float64 entry is reduced mod p first.  float64 is exact
# while K e (p-1)^2 + (p-1) < 2^53, which for e >= 2 holds on every field
# below about 4.5e15 / K elements; past that the route raises
# BudgetExceeded before any work.

ZECH_MIN_Q = 1 << 12
ZECH_MAX_Q = math.inf  # no upper cap; the name stays for perfbench's tracer
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
    The search starts at index p, as the elements below it form F_p (so
    e >= 2), and tests a batch at a time."""
    p, q = field.p, field.q
    exponents = [(q - 1) // ell for ell in _prime_factors(q - 1)]
    for start in range(p, q, _GENERATOR_BATCH):
        stop = min(start + _GENERATOR_BATCH, q)
        full = _full_order(field, _element_block(field, start, stop), exponents)
        if full.any():
            return field.from_index(start + int(full.argmax()))
    raise AssertionError("no generator found")  # unreachable for e >= 2


def _powers_rows(step: np.ndarray, count: int, p: int, dtype=np.int64) -> np.ndarray:
    """Digit rows of y^0 .. y^(count-1) in dtype, step the multiplication
    matrix of y (or a stack of them), built by block doubling.  Products
    run in int64 on chunks of about _CHUNK entries, so no int64 copy of the
    whole table is made."""
    rows = np.zeros(step.shape[:-2] + (count, step.shape[-1]), dtype=dtype)
    rows[..., 0, 0] = 1
    chunk = max(1, _CHUNK // (math.prod(step.shape[:-2]) * step.shape[-1]))
    have = 1  # step multiplies by y^have
    while have < count:
        take = min(have, count - have)
        for lo in range(0, take, chunk):
            hi = min(take, lo + chunk)
            rows[..., have + lo : have + hi, :] = rows[..., lo:hi, :] @ step % p
        step, have = step @ step % p, have + take
    return rows


class _ZechField(NamedTuple):
    """Per-field set-up of the Zech route; every array is read-only."""

    B: int  # p^(e//2), the number of columns b
    A: int  # q / B rows a
    G: np.ndarray  # multiplication matrix of g
    H: np.ndarray  # trace form, H[i, j] = Tr(x^(i+j))
    S: np.ndarray  # sigma(y) = y^B on digit rows


@functools.lru_cache(maxsize=32)
def _zech_field(field: FiniteField) -> _ZechField:
    """g, the smallest generator of F_q^*, with the trace form and sigma:
    built once per field."""
    p, e, q = field.p, field.e, field.q
    B = p ** (e // 2)
    (G,) = _mul_matrices(field, np.array([_find_generator(field).coeffs], dtype=np.int64))
    tr_xk = np.array(field.power_traces(2 * e - 1), dtype=np.int64)
    H = tr_xk[np.add.outer(np.arange(e), np.arange(e))]
    xB = field.from_index(p) ** B  # element p is x, as e >= 2
    (XB,) = _mul_matrices(field, np.array([xB.coeffs], dtype=np.int64))
    S = _powers_rows(XB, e, p)  # row i is x^(i B) = (x^B)^i
    for a in (G, H, S):
        a.flags.writeable = False
    return _ZechField(B, q // B, G, H, S)


def _term_rows(field: FiniteField, ks: list[int]) -> np.ndarray:
    """The digit rows of g^(k*j), j < A, for each term degree k, stacked
    (len(ks), A, e) in the smallest unsigned dtype that holds p - 1: the
    digits of g^k from one table of powers, then one block-doubling pass
    over their multiplication matrices.  Under the default budget the
    largest table is F_{463^3}'s, 463^2 * 3 two-byte digits = 1.29 MB."""
    z, p = _zech_field(field), field.p
    digits = _powers_rows(z.G, max(ks) + 1, p)[ks]
    return _powers_rows(_mul_matrices(field, digits), z.A, p, np.min_scalar_type(p - 1))


def _merged_terms(fbar: FieldPolynomial) -> list[tuple[int, FieldElement]]:
    """The nonconstant terms (k, c_k) of f with Tr(c x^(p j)) = Tr(c^(1/p) x^j)
    applied until p does not divide k, c^(1/p) = c^(p^(e-1)); terms that
    cancel are dropped.  Tr(f(x)) is unchanged at every x."""
    field = fbar.field
    merged: dict[int, FieldElement] = {}
    for k, c in enumerate(fbar.coeffs):
        if not k or c.is_zero():
            continue
        while k % field.p == 0:
            k //= field.p
            if any(c.coeffs[1:]):  # F_p is fixed by Frobenius
                c = c ** (field.q // field.p)
        merged[k] = merged[k] + c if k in merged else c
    return [(k, c) for k, c in sorted(merged.items()) if not c.is_zero()]


def _symmetric(field: FiniteField, terms: list[tuple[int, FieldElement]]) -> bool:
    """Whether T[a, b] = T[b, a]: e is even (so A = B and sigma has order 2)
    and every c_k is fixed by sigma, c^B = c with B = p^(e/2).  F_p
    coefficients are, as their digits show."""
    B = field.p ** (field.e // 2)
    return field.e % 2 == 0 and all(not any(c.coeffs[1:]) or c**B == c for _, c in terms)


def _trace_histogram_zech(fbar: FieldPolynomial) -> list[int]:
    """The trace histogram on a field of degree e >= 2, by the trace form."""
    field = fbar.field
    p, e, q = field.p, field.e, field.q
    terms = _merged_terms(fbar)
    tr0 = field.trace(fbar.coeffs[0]) if fbar.coeffs else 0
    hist = np.zeros(p, dtype=np.int64)
    hist[tr0] += 1  # x = 0 contributes Tr(c_0)
    if not terms:
        hist[tr0] += q - 1
        return hist.tolist()
    limit = _q_limit(e, len(terms), _FLOAT64_EXACT)
    if q > limit:
        raise BudgetExceeded(q, limit)

    z = _zech_field(field)
    A, B = z.A, z.B
    half = _symmetric(field, terms)
    top = len(terms) * e * (p - 1) ** 2  # largest entry of the product
    fold = top <= _FOLD_MAX  # float32 sums are exact too
    dtype = np.float32 if fold else np.float64
    W = _mul_matrices(field, np.array([c.coeffs for _, c in terms], dtype=np.int64))
    W = (z.S @ W % p) @ z.H % p  # sigma, then c_k, then the trace form
    rows = _term_rows(field, [k for k, _ in terms])
    M = np.vstack([Z[:B].T for Z in rows], dtype=dtype)
    counts = np.zeros(top + 1 if fold else p, dtype=np.int64)

    def entries(U: np.ndarray, first: int, last: int) -> np.ndarray:
        """T[a, b] - Tr(c_0) for U's rows a and b in [first, last),
        flattened: raw sums when folding, else reduced mod p."""
        T = (U @ M[:, first:last]).astype(np.int64).ravel()
        return T if fold else T % p

    lo = 0
    while lo < A:
        hi = min(A, lo + max(1, _CHUNK // (B - lo if half else B)))
        U = np.hstack([Z[lo:hi] @ Wk % p for Z, Wk in zip(rows, W)], dtype=dtype)
        if half:  # the square [lo, hi)^2 holds both halves; b >= hi stands for two
            square = entries(U, lo, hi)
            if hi == A:
                square = square[:-1]  # (A-1, A-1) is k = q - 1: x = 1 again
            counts += np.bincount(square, minlength=counts.size)
            counts += 2 * np.bincount(entries(U, hi, B), minlength=counts.size)
        else:
            counts += np.bincount(entries(U, 0, B)[: q - 1 - lo * B], minlength=counts.size)
        lo = hi
    np.add.at(hist, (np.arange(counts.size) + tr0) % p, counts)
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
