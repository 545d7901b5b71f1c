"""Z[zeta_p] arithmetic: ring laws against a naive oracle, pi-adic valuation.

The naive multiplication oracle works in Z[x]/(x^p - 1) first (exponent
arithmetic mod p) and then eliminates zeta^(p-1) with the minimal relation
1 + zeta + ... + zeta^(p-1) = 0; the library's convolution never sees it.

The valuation oracle is the binomial sum: substituting zeta = 1 - pi gives
a = sum_j b_j pi^j with integer b_j, j <= p-2, and the minimum of
j + (p-1) v_p(b_j) over nonzero b_j is v_pi(a) (the j are distinct mod
p-1).  It costs O(p^2) bigint work; the library reads the first b_j that
is nonzero mod p off one correlation with inverse factorials mod p.

Both oracles run on Python ints.  The library keeps int64 vectors while
each result stays below 2^62 and switches to dtype=object above that, so
the boundary cases below take coefficients near 2^62 / p and p^40 times a
unit across it.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galois_action import NotAUnit, galois_apply
from npscan.cyclotomic import (
    INFINITY,
    INT64_LIMIT,
    CycInt,
    as_rational_integer,
    exact_div_int,
    int_valuation,
    pi_valuation,
    zeta_power,
)
from npscan.errors import NotDivisible, NotPrime, NotRational, PrimeMismatch


def naive_mul(a: CycInt, b: CycInt) -> CycInt:
    p = a.p
    full = [0] * p
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            full[(i + j) % p] += ai * bj
    top = full[p - 1]
    return CycInt(p, tuple(full[i] - top for i in range(p - 1)))


def random_cyc(p, rng, bound=9):
    return CycInt(p, tuple(rng.randint(-bound, bound) for _ in range(p - 1)))


def binomial_pi_valuation(a: CycInt):
    if a.is_zero():
        return INFINITY
    p, coeffs = a.p, a.coeffs
    best = INFINITY
    for j in range(p - 1):
        b = sum(coeffs[i] * math.comb(i, j) for i in range(j, p - 1)) * (-1) ** (j % 2)
        if b:
            best = min(best, j + (p - 1) * int_valuation(b, p))
    return best


def test_basic_identities_p3():
    zeta = zeta_power(3, 1)
    one = CycInt.one(3)
    # (1 + zeta) * zeta = zeta + zeta^2 = -1
    assert (one + zeta) * zeta == CycInt.from_int(3, -1)
    assert zeta * zeta == zeta_power(3, 2)
    assert zeta_power(3, 3) == one
    assert zeta_power(3, 2) == CycInt(3, (-1, -1))


@pytest.mark.parametrize("n", [1, 4, 9, 561])
def test_composite_p_is_rejected_every_time(n):
    """The primality of p is remembered, not skipped: a composite p raises on
    every construction, also after prime ones."""
    for _ in range(2):
        CycInt.one(7)
        with pytest.raises(NotPrime):
            CycInt(n, (0,) * (n - 1))


def test_zeta_power_wraps_and_relation():
    for p in (3, 5, 7):
        s = CycInt.zero(p)
        for k in range(p):
            s = s + zeta_power(p, k)
        assert s.is_zero()  # 1 + zeta + ... + zeta^(p-1) = 0
        assert zeta_power(p, p + 2) == zeta_power(p, 2)
        assert zeta_power(p, -1) == zeta_power(p, p - 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_mul_matches_naive_oracle(p):
    rng = random.Random(p)
    for _ in range(200):
        a, b = random_cyc(p, rng), random_cyc(p, rng)
        assert a * b == naive_mul(a, b)


def test_int_scalars_and_from_root_counts():
    a = CycInt.from_root_counts(3, [1, 2, 0])  # 1 + 2*zeta
    assert a == CycInt(3, (1, 2))
    assert 2 * a == a + a
    assert a * -1 == -a
    assert CycInt.from_int(5, 7) == CycInt(5, (7, 0, 0, 0))


def test_exact_division():
    a = CycInt(5, (2, 4, -6, 0))
    assert exact_div_int(a, 2) == CycInt(5, (1, 2, -3, 0))
    with pytest.raises(NotDivisible):
        exact_div_int(CycInt(5, (1, 2, 0, 0)), 2)


def test_pi_valuation_frozen_values():
    one = CycInt.one(3)
    zeta = zeta_power(3, 1)
    assert pi_valuation(one - zeta) == 1
    assert pi_valuation(CycInt.from_int(3, 3)) == 2  # v(p) = p - 1
    assert pi_valuation(CycInt(3, (1, 2))) == 1
    assert pi_valuation(CycInt.zero(3)) == INFINITY
    assert pi_valuation(CycInt.one(7)) == 0
    assert pi_valuation(CycInt.from_int(7, 7)) == 6
    assert pi_valuation(CycInt.from_int(7, 14)) == 6
    assert pi_valuation(CycInt.from_int(7, 49)) == 12
    for p in (3, 5, 7):
        assert pi_valuation(CycInt.one(p) - zeta_power(p, 1)) == 1


def test_product_of_conjugates_of_pi_is_p():
    for p in (3, 5, 7, 11):
        acc = CycInt.one(p)
        one = CycInt.one(p)
        for c in range(1, p):
            acc = acc * (one - zeta_power(p, c))
        assert as_rational_integer(acc) == p
        assert pi_valuation(acc) == p - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 101])
def test_pi_valuation_matches_binomial_oracle(p):
    rng = random.Random(4000 + p)
    one = CycInt.one(p)
    pi = one - zeta_power(p, 1)
    for trial in range(150):
        a = random_cyc(p, rng, bound=rng.choice([1, 9, 10**6]))
        if trial % 3 == 1:
            a = a * p ** rng.randrange(1, 4)  # high valuations: p^t divides a
        elif trial % 3 == 2:
            for _ in range(rng.randrange(1, 3 * p)):  # multiples of pi^k
                a = a * pi
        assert pi_valuation(a) == binomial_pi_valuation(a), a
    assert pi_valuation(CycInt.zero(p)) == binomial_pi_valuation(CycInt.zero(p)) == INFINITY


def vanishing_at_one(p, j, rng):
    """Coefficients of (x - 1)^j s(x) mod p, deg <= p - 2, s(1) != 0 mod p:
    v_pi is j, plus p times random noise that does not change it."""
    r = [1]
    for _ in range(j):  # times (x - 1)
        r = [(lo - hi) % p for lo, hi in zip([0] + r, r + [0])]
    s = [rng.randrange(p) for _ in range(p - 1 - j)]
    s[0] = (s[0] + 1 - sum(s)) % p  # s(1) = 1
    prod = [0] * (p - 1)
    for i, ri in enumerate(r):
        for k, sk in enumerate(s[: p - 1 - i]):
            prod[i + k] = (prod[i + k] + ri * sk) % p
    return CycInt(p, tuple(c + p * rng.randint(-9, 9) for c in prod))


@pytest.mark.parametrize("block", [1, 3, 16, None])
@pytest.mark.parametrize("p", [2, 3, 13, 101])
def test_pi_valuation_lag_blocks_match_binomial_oracle(monkeypatch, p, block):
    """The lag blocks (a few shrunk to 1..16 lags so small p spans many) find
    the same j as the oracle, at block edges and at the last lag p - 2."""
    from npscan import cyclotomic

    if block is not None:
        monkeypatch.setattr(cyclotomic, "_LAG_BLOCK", block)
    rng = random.Random(p * 7 + (block or 0))
    edges = {0, 1, 2, 3, 4, 15, 16, 17, 47, 48, 49, p - 3, p - 2}
    for j in sorted(k for k in edges if 0 <= k <= p - 2):
        a = vanishing_at_one(p, j, rng)
        assert pi_valuation(a) == binomial_pi_valuation(a) == j, (p, j)
        assert pi_valuation(a * p) == (p - 1) + j


@pytest.mark.parametrize("j", [0, 511, 512, 1000, 1029])
def test_pi_valuation_past_the_first_block(j):
    """p = 1031 has 1030 lags: [0, 512) in the first block, the rest in the
    second.  The construction gives v_pi = j (the binomial oracle takes
    seconds per element at this p; the shrunk blocks above check it)."""
    a = vanishing_at_one(1031, j, random.Random(j))
    assert pi_valuation(a) == j


def test_pi_valuation_of_pi_powers():
    for p in (2, 3, 5, 13):
        pi = CycInt.one(p) - zeta_power(p, 1)
        power = CycInt.one(p)
        for k in range(3 * p):
            assert pi_valuation(power) == k, (p, k)
            power = power * pi


@pytest.mark.parametrize("p", [3, 5, 7])
def test_valuation_is_additive_on_products(p):
    rng = random.Random(1000 + p)
    for _ in range(300):
        a, b = random_cyc(p, rng), random_cyc(p, rng)
        if a.is_zero() or b.is_zero():
            continue
        assert pi_valuation(a * b) == pi_valuation(a) + pi_valuation(b)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_valuation_ultrametric(p):
    rng = random.Random(2000 + p)
    for _ in range(200):
        a, b = random_cyc(p, rng), random_cyc(p, rng)
        va, vb, vs = pi_valuation(a), pi_valuation(b), pi_valuation(a + b)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)


def test_galois_action():
    a = CycInt(5, (1, 2, 3, 4))
    assert galois_apply(a, 1) == a
    assert galois_apply(zeta_power(5, 1), 2) == zeta_power(5, 2)
    assert galois_apply(zeta_power(5, 3), 2) == zeta_power(5, 6)
    with pytest.raises(NotAUnit):
        galois_apply(a, 5)
    with pytest.raises(NotAUnit):
        galois_apply(a, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_galois_preserves_valuation_and_ring_ops(p):
    rng = random.Random(3000 + p)
    for _ in range(120):
        a, b = random_cyc(p, rng), random_cyc(p, rng)
        c = rng.randrange(1, p)
        assert galois_apply(a * b, c) == galois_apply(a, c) * galois_apply(b, c)
        assert galois_apply(a + b, c) == galois_apply(a, c) + galois_apply(b, c)
        assert pi_valuation(galois_apply(a, c)) == pi_valuation(a)


def test_as_rational_integer():
    a = CycInt(3, (1, 2))
    norm = a * galois_apply(a, 2)
    assert as_rational_integer(norm) == 3  # (1+2z)(1+2z^2)
    assert as_rational_integer(CycInt.from_int(5, -12)) == -12
    with pytest.raises(NotRational):
        as_rational_integer(zeta_power(5, 1))


def test_norm_is_rational():
    for p in (5, 7):
        rng = random.Random(p)
        for _ in range(40):
            a = random_cyc(p, rng, bound=4)
            acc = CycInt.one(p)
            for c in range(1, p):
                acc = acc * galois_apply(a, c)
            as_rational_integer(acc)  # must not raise


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*[st.integers(-20, 20)] * 4),
    st.tuples(*[st.integers(-20, 20)] * 4),
    st.tuples(*[st.integers(-20, 20)] * 4),
)
def test_ring_laws_p5(t1, t2, t3):
    a, b, c = CycInt(5, t1), CycInt(5, t2), CycInt(5, t3)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == naive_mul(a, b)


# -- the int64 / object boundary ----------------------------------------------


def naive_galois(a: CycInt, c: int) -> CycInt:
    p = a.p
    full = [0] * p
    for i, ai in enumerate(a.coeffs):
        full[i * c % p] += ai
    return CycInt(p, tuple(full[i] - full[p - 1] for i in range(p - 1)))


def assert_canonical(a: CycInt):
    """int64 exactly when every entry is below 2^62; coeffs are Python ints."""
    big = max(abs(c) for c in a.coeffs) >= INT64_LIMIT
    assert a.vec.dtype == (object if big else np.int64)
    assert all(type(c) is int for c in a.coeffs)
    assert a.coeffs is a.coeffs  # built once


def near_limit(p, rng, over):
    """Coefficients of size about 2^62 / p, times 9 * 2p when over."""
    top = INT64_LIMIT // p * (18 * p if over else 1)
    return CycInt(p, tuple(rng.randint(-top, top) for _ in range(p - 1)))


@pytest.mark.parametrize("p", [2, 3, 7, 31])
def test_products_cross_the_bound_exactly(p):
    rng = random.Random(5000 + p)
    for _ in range(20):
        a, small = near_limit(p, rng, False), random_cyc(p, rng)
        assert a.vec.dtype == np.int64
        for x, y in ((a, small), (small, a), (a, a), (near_limit(p, rng, True), a)):
            prod = x * y
            assert prod == naive_mul(x, y)
            assert_canonical(prod)
        assert a * 2**70 == CycInt(p, tuple(c * 2**70 for c in a.coeffs))
        assert 0 * a == CycInt.zero(p)


@pytest.mark.parametrize("p", [2, 5, 13])
def test_sums_and_galois_cross_the_bound_and_back(p):
    rng = random.Random(6000 + p)
    half = INT64_LIMIT // 2
    for _ in range(30):
        signs = [rng.choice([-1, 1]) for _ in range(p - 1)]
        a = CycInt(p, tuple(s * rng.randint(half, INT64_LIMIT - 1) for s in signs))
        b = near_limit(p, rng, False)
        assert a.vec.dtype == np.int64
        total = a + a
        assert total.coeffs == tuple(2 * c for c in a.coeffs)
        assert_canonical(total)
        back = total - a  # computed in object, stored as int64 again
        assert back == a and hash(back) == hash(a)
        assert back.vec.dtype == np.int64
        assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        c = rng.randrange(1, p)
        assert galois_apply(a, c) == naive_galois(a, c)
        assert_canonical(galois_apply(a, c))
        assert galois_apply(total, c) == naive_galois(total, c)
        assert -total == CycInt(p, tuple(-x for x in total.coeffs))


@pytest.mark.parametrize("p", [3, 7, 101])
def test_big_multiples_of_p_divide_and_value_exactly(p):
    rng = random.Random(7000 + p)
    big = p**40
    for trial in range(12):
        unit = random_cyc(p, rng)
        while unit.is_zero():
            unit = random_cyc(p, rng)
        a = unit * big + random_cyc(p, rng) * p**41 if trial % 2 else unit * big
        assert a.vec.dtype == object
        assert_canonical(a)
        assert pi_valuation(a) == binomial_pi_valuation(a) >= 40 * (p - 1)
        q = exact_div_int(a, big)
        assert q.coeffs == tuple(c // big for c in a.coeffs)
        assert_canonical(q)  # back to int64
        assert exact_div_int(a, p).coeffs == tuple(c // p for c in a.coeffs)
        assert exact_div_int(q, -1) == -q
    with pytest.raises(NotDivisible, match=f"^1 not divisible by {big}$"):
        exact_div_int(CycInt.one(p), big)
    odd = CycInt(p, (big + 1,) + (0,) * (p - 2))
    with pytest.raises(NotDivisible, match=f"^{big + 1} not divisible by {p}$"):
        exact_div_int(odd, p)
    assert exact_div_int(CycInt.zero(p), big) == CycInt.zero(p)
    with pytest.raises(ZeroDivisionError, match="^division by zero$"):
        exact_div_int(odd, 0)


def test_public_surface_keeps_its_errors_and_values():
    with pytest.raises(PrimeMismatch, match="^p = 3 vs p = 5$"):
        CycInt.one(3) + CycInt.one(5)
    with pytest.raises(PrimeMismatch, match="^p = 5 vs p = 3$"):
        CycInt.one(5) * CycInt.one(3)
    with pytest.raises(ValueError, match="^need 4 basis coefficients for p = 5, got 3$"):
        CycInt(5, (1, 2, 3))
    with pytest.raises(ValueError, match="^need 5 exponent counts$"):
        CycInt.from_root_counts(5, [1, 2])
    with pytest.raises(NotRational, match="has a nonzero zeta component$"):
        as_rational_integer(CycInt(3, (2**70, 1)))
    assert as_rational_integer(CycInt.from_int(7, -(2**70))) == -(2**70)
    assert type(as_rational_integer(CycInt.from_int(7, 3))) is int
    assert_canonical(CycInt(3, (-(2**63), 1)))  # abs(-2^63) wraps in int64
    huge = CycInt.from_root_counts(3, [2**63, 0, 1])
    assert huge == CycInt(3, (2**63 - 1, -1))
    assert_canonical(huge)
    a = CycInt(5, (1, -2, 3, 0))
    assert {a: 1}[CycInt.from_root_counts(5, [1, -2, 3, 0, 0])] == 1
    assert a != CycInt(7, (1, -2, 3, 0, 0, 0)) and a != (1, -2, 3, 0)
    assert repr(a) == "CycInt(p=5, [1, -2, 3, 0])"
    with pytest.raises(ValueError):
        a.vec[0] = 7  # read-only
