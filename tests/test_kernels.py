"""Dual-route checks for the vectorized kernels.

Every fast path has a slow twin: Horner-block evaluation vs elementwise
Python evaluation, and the Zech route vs both.  The routes share no code
beyond the field definition itself.

Which inputs each route takes:

* naive (the oracle): any polynomial over any field;
* Horner: any polynomial over any field;
* Zech: ZECH_MIN_Q <= q <= ZECH_MAX_Q, and every coefficient of x^k with
  k >= 1 in F_p (c_0 is free); it raises on anything else.
  trace_histogram sends it exactly those inputs and the rest to Horner.
"""

import random

import pytest

from npscan import kernels
from npscan.errors import BudgetExceeded
from npscan.fields import build_field


def random_poly(field, degree, rng):
    coeffs = [rng.randrange(field.q) for _ in range(degree)] + [
        rng.randrange(1, field.q)
    ]
    return field.poly([field.from_index(k) for k in coeffs])


def random_fp_poly(field, degree, rng):
    """Constant term anywhere in F_q, every other coefficient in F_p."""
    p = field.p
    coeffs = [rng.randrange(p) for _ in range(degree - 1)] + [rng.randrange(1, p)]
    return field.poly([field.from_index(rng.randrange(field.q))] + coeffs)


@pytest.mark.parametrize("p,e", [(2, 5), (3, 3), (5, 2), (7, 2), (11, 1), (13, 2), (3, 8)])
def test_trace_histogram_matches_naive(p, e):
    rng = random.Random(p * 100 + e)
    F = build_field(p, e)
    for deg in (1, 2, 5):
        f = random_poly(F, deg, rng)
        assert kernels.trace_histogram(f) == kernels.naive_trace_histogram(f)


@pytest.mark.parametrize("p,e", [(3, 8), (5, 6), (7, 5), (2, 13)])
def test_zech_and_horner_routes_agree(p, e):
    """Fields past the Zech cutoff: compare the index-table route against
    the Horner-block route explicitly (these share no evaluation code)."""
    rng = random.Random(e)
    F = build_field(p, e)
    assert F.q > kernels.ZECH_MIN_Q
    for deg in (2, 3, 6):
        f = random_fp_poly(F, deg, rng)
        assert kernels._trace_histogram_zech(f) == kernels._trace_histogram_horner(f)


@pytest.mark.parametrize("p", [40009, 65537])
def test_zech_matches_horner_past_int16(p):
    """Traces above 2^15 must not wrap in the Zech table."""
    F = build_field(p, 1)
    rng = random.Random(p)
    for f in (F.poly([0, 0, 1]), random_fp_poly(F, 5, rng)):
        assert kernels._trace_histogram_zech(f) == kernels._trace_histogram_horner(f)


def test_zech_rejects_coefficients_outside_prime_field():
    F = build_field(3, 8)
    f = F.poly([0, F.gen(), 1])
    with pytest.raises(ValueError):
        kernels._trace_histogram_zech(f)


def test_zech_handles_sparse_and_constant_polys():
    F = build_field(3, 8)
    x7 = F.poly([0] * 7 + [1])
    assert kernels._trace_histogram_zech(x7) == kernels._trace_histogram_horner(x7)
    const = F.poly([F.from_index(11)])
    h = kernels._trace_histogram_zech(const)
    assert sum(h) == F.q and h[F.trace(F.from_index(11))] == F.q
    zero = F.poly([])
    assert kernels._trace_histogram_zech(zero)[0] == F.q


def test_histogram_total_is_field_size():
    F = build_field(7, 3)
    f = F.poly([3, 0, 1, 2])
    assert sum(kernels.trace_histogram(f)) == F.q


def test_value_codes_match_direct_eval():
    F = build_field(3, 2)
    f = F.poly([1, 2, 1])
    codes = kernels.value_codes(f)
    weights = [3**i for i in range(2)]
    for k in range(9):
        v = f(F.from_index(k))
        assert codes[k] == sum(c * w for c, w in zip(v.coeffs, weights))


def test_distinct_value_count():
    F = build_field(5, 1)
    assert kernels.distinct_value_count(F.poly([0, 0, 0, 1])) == 5  # x^3 permutes F_5
    assert kernels.distinct_value_count(F.poly([0, 0, 1])) == 3  # squares: 0,1,4


def test_find_first_root_matches_scan():
    F = build_field(3, 4)
    sub = build_field(3, 2)
    idx = kernels.find_first_root(F, sub.modulus)
    root = F.from_index(idx)
    acc = F.zero()
    for i, c in enumerate(sub.modulus):
        acc = acc + F.element(c) * root**i
    assert acc.is_zero()
    for k in range(idx):  # nothing earlier is a root
        x = F.from_index(k)
        acc = F.zero()
        for i, c in enumerate(sub.modulus):
            acc = acc + F.element(c) * x**i
        assert not acc.is_zero()
    with pytest.raises(ValueError):
        kernels.find_first_root(F, build_field(3, 3).modulus)


def test_find_generator_has_full_order():
    for p, e in [(3, 2), (5, 2), (2, 6), (7, 1)]:
        F = build_field(p, e)
        g = kernels._find_generator(F)
        seen = set()
        x = F.one()
        for _ in range(F.q - 1):
            seen.add(x.coeffs)
            x = x * g
        assert len(seen) == F.q - 1 and x == F.one()


def test_element_block_matches_from_index():
    F = build_field(5, 3)
    blk = kernels._element_block(F, 17, 40)
    for row, k in zip(blk, range(17, 40)):
        assert tuple(int(v) for v in row) == F.from_index(k).coeffs


def test_int64_bound_fails_loudly():
    """F_p at p = 2^31 + 11 is the first prime field past the int64 bound."""
    fbar = build_field(2147483659, 1).poly([0, 0, 0, 1])
    with pytest.raises(BudgetExceeded):
        kernels.eval_blocks(fbar)  # on the call, before any block
    with pytest.raises(BudgetExceeded):
        kernels.trace_histogram(fbar)
    with pytest.raises(BudgetExceeded):
        kernels.value_codes(fbar)
    # the largest F_p inside the bound still evaluates
    assert next(kernels.eval_blocks(build_field(2147483647, 1).poly([1])))[0] == 0
