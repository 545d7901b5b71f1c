"""Dickson polynomials, permutation criteria, decomposition, recognition.

The coefficient oracle is the classical closed form
    D_n(x, a) = sum_j n/(n-j) * C(n-j, j) * (-a)^j * x^(n-2j),
checked against the library's recurrence; the defining identity is tested
pointwise over Q and over finite fields.
"""

import math
import random
from fractions import Fraction

import pytest

from npscan.dickson import (
    _admissibility_gates,
    compose,
    decompose,
    dickson,
    dickson_over_field,
    dickson_perm_criterion,
    find_dickson_factor,
    gpp_over_q,
    is_admissible,
    is_permutation_bruteforce,
    recognize_dickson,
)
from npscan.errors import BudgetExceeded, NotPrime
from npscan.fields import build_field, is_prime
from npscan.lfunction import reduce_mod_p
from npscan import ratpoly

F = Fraction


def Q(*cs):
    return tuple(F(c) for c in cs)


def dickson_closed_form(n, a):
    out = [F(0)] * (n + 1)
    for j in range(n // 2 + 1):
        out[n - 2 * j] = F(n, n - j) * math.comb(n - j, j) * (-a) ** j
    return ratpoly.as_poly(out)


def test_small_cases_frozen():
    a = F(1)
    assert dickson(0, a) == Q(2)
    assert dickson(1, a) == Q(0, 1)
    assert dickson(2, a) == Q(-2, 0, 1)
    assert dickson(3, a) == Q(0, -3, 0, 1)
    assert dickson(5, a) == Q(0, 5, 0, -5, 0, 1)
    assert dickson(2, F(3, 2)) == Q(-3, 0, 1)


@pytest.mark.parametrize("a", [F(0), F(1), F(-2), F(3, 4)])
def test_matches_closed_form(a):
    for n in range(1, 21):
        assert dickson(n, a) == dickson_closed_form(n, a)


@pytest.mark.parametrize("a", [F(0), F(1), F(-2), F(2, 3)])
def test_defining_identity_rational_points(a):
    """D_n(y + a/y, a) = y^n + (a/y)^n for all y != 0."""
    for n in range(1, 16):
        d = dickson(n, a)
        for y in (F(1), F(2), F(-3), F(3, 2), F(-5, 7)):
            lhs = ratpoly.poly_eval(d, y + a / y)
            assert lhs == y**n + (a / y) ** n


def test_defining_identity_over_field():
    Fq = build_field(7, 2)
    for a_idx in (0, 1, 9):
        a = Fq.from_index(a_idx)
        for n in (2, 3, 5, 8):
            d = dickson_over_field(n, a)
            for u_idx in (1, 2, 13, 30):
                u = Fq.from_index(u_idx)
                uinv = u ** (Fq.q - 2)
                lhs = d(u + a * uinv)
                rhs = u**n + a**n * (uinv) ** n
                assert lhs == rhs


def test_power_case():
    for n in range(1, 12):
        assert dickson(n, F(0)) == ratpoly.poly_pow(ratpoly.X, n)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 4), (5, 2)])
def test_composition_law(m, n):
    for a in (F(1), F(-2), F(3, 5)):
        lhs = dickson(m * n, a)
        rhs = compose(dickson(m, a**n), dickson(n, a))
        assert lhs == rhs


def test_scaling_law():
    for n in (2, 3, 5, 7):
        for c in (F(2), F(-3), F(1, 2)):
            a = F(3, 4)
            lhs = compose(dickson(n, c**2 * a), (F(0), c))  # D_n(cx, c^2 a)
            rhs = ratpoly.poly_scale(dickson(n, a), c**n)
            assert lhs == rhs


def test_dickson_over_field_matches_reduction():
    """Both constructions share one recurrence; at p = 2, D_0 = 2 reduces to
    the zero polynomial on both sides."""
    for a in (F(0), F(1), F(-2), F(3, 5)):
        for p in (2, 3, 7, 13):
            if a.denominator % p == 0:
                continue
            a_bar = build_field(p, 1).element(ratpoly.mod_p(a, p))
            for n in range(13):
                assert dickson_over_field(n, a_bar) == reduce_mod_p(dickson(n, a), p), (n, a, p)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_perm_criterion_equals_bruteforce(p, e):
    Fq = build_field(p, e)
    for n in range(1, 9):
        for a_idx in range(Fq.q):
            a = Fq.from_index(a_idx)
            got = dickson_perm_criterion(n, a)
            want = is_permutation_bruteforce(dickson_over_field(n, a))
            assert got == want, (p, e, n, a_idx)


def test_perm_criterion_frozen_cases():
    F7 = build_field(7, 1)
    assert dickson_perm_criterion(5, F7.element(1))  # gcd(5, 48) = 1
    assert not dickson_perm_criterion(3, F7.element(0))  # 3 | 6
    assert dickson_perm_criterion(5, F7.element(0))  # gcd(5, 6) = 1
    F11 = build_field(11, 1)
    assert not dickson_perm_criterion(5, F11.element(1))  # 5 | 120


def test_bruteforce_budget():
    Fq = build_field(7, 2)
    with pytest.raises(BudgetExceeded):
        is_permutation_bruteforce(dickson_over_field(3, Fq.one()), budget=10)


def test_admissible_triples():
    assert is_admissible(7, F(1), 5).admissible
    assert is_admissible(5, F(0), 3).admissible
    assert is_admissible(13, F(1), 5).admissible
    t = is_admissible(11, F(1), 5)
    assert not t.admissible and t.p_integral and t.p_coprime_6n
    t = is_admissible(2, F(1), 5)  # 2 | 6n
    assert not t.admissible and not t.p_coprime_6n
    t = is_admissible(3, F(1, 3), 5)  # denominator divisible by p
    assert not t.admissible and not t.p_integral
    with pytest.raises(NotPrime):
        is_admissible(4, F(1), 5)
    with pytest.raises(ValueError):
        is_admissible(7, F(1), 1)


def test_admissible_permutation_gate_is_the_field_criterion():
    """is_admissible decides from p and a mod p what dickson_perm_criterion
    decides on the element of F_p."""
    for p in (p for p in range(2, 60) if is_prime(p)):
        for a in (F(0), F(1), F(-1), F(p), F(3 * p, 7), F(2, 5), F(p + 1, 3)):
            for n in range(2, 14):
                t = is_admissible(p, a, n)
                if t.p_integral:
                    want = dickson_perm_criterion(n, build_field(p, 1).element(ratpoly.mod_p(a, p)))
                    assert t.dickson_permutes == want, (p, a, n)


def test_admissibility_gates_agree_with_is_admissible():
    """The gates scan rows take without a primality test, against
    is_admissible and against their definitions: a p-integral, gcd(6n, p)
    = 1 and the field criterion on a mod p.  The grid has p | 6n, p | num(a)
    and p | den(a)."""
    avals = (F(0), F(1), F(-1), F(2), F(6), F(1, 3), F(-2, 5), F(7, 2))
    seen = set()
    for p in (p for p in range(2, 501) if is_prime(p)):
        for a in avals:
            for n in range(2, 16):
                gates = _admissibility_gates(p, a, n)
                t = is_admissible(p, a, n)
                assert gates == (t.p_integral, t.p_coprime_6n, t.dickson_permutes), (p, a, n)
                assert all(gates) == t.admissible, (p, a, n)
                p_integral = a.denominator % p != 0
                abar = build_field(p, 1).element(ratpoly.mod_p(a, p)) if p_integral else None
                want = (p_integral, math.gcd(6 * n, p) == 1,
                        p_integral and dickson_perm_criterion(n, abar))
                assert gates == want, (p, a, n)
                seen.update(k for k, hit in (("6n", (6 * n) % p == 0),
                                             ("num", a.numerator % p == 0 and a != 0),
                                             ("den", not p_integral),
                                             ("admissible", all(gates))) if hit)
    assert seen == {"6n", "num", "den", "admissible"}


def test_shifted_monomial_scan_builds_no_field():
    """Admissibility reads p and a mod p; a closed-form scan enumerates no
    field, so it builds none either."""
    from npscan.scan import ScanOptions, run_scan

    before = build_field.cache_info()
    records, summary = run_scan(ratpoly.poly_pow(ratpoly.X, 3), ScanOptions(p_max=3000))
    after = build_field.cache_info()
    assert summary.n_admissible == 221 and len(records) == 429
    assert after == before  # hits, misses and currsize


def test_gpp_over_q():
    assert gpp_over_q(3, F(0))
    assert gpp_over_q(5, F(0))
    assert not gpp_over_q(2, F(0))
    assert not gpp_over_q(3, F(1))  # gcd(3, 6) != 1
    assert gpp_over_q(5, F(1))
    assert gpp_over_q(7, F(1, 2))
    # a positive verdict has admissible witnesses: one below 100 for (5, 1)
    assert any(is_admissible(p, F(1), 5).admissible for p in range(2, 101) if is_prime(p))


def test_decompose_powers():
    ch = decompose(ratpoly.poly_pow(ratpoly.X, 6))
    assert [ratpoly.degree(g) for g in ch.factors] == [3, 2]
    assert ch.recompose() == ratpoly.poly_pow(ratpoly.X, 6)
    assert ch.markers() == ("dickson", "dickson")
    ch8 = decompose(ratpoly.poly_pow(ratpoly.X, 8))
    assert [ratpoly.degree(g) for g in ch8.factors] == [2, 2, 2]


def test_decompose_dickson_six():
    ch = decompose(dickson(6, F(1)))
    assert [ratpoly.degree(g) for g in ch.factors] == [3, 2]
    assert ch.recompose() == dickson(6, F(1))
    assert ch.markers() == ("dickson", "dickson")


def test_prime_degree_indecomposable():
    f = Q(1, 3, 0, 0, 0, 1)  # x^5 + 3x + 1
    ch = decompose(f)
    assert len(ch.factors) == 1 and ch.factors[0] == f


def test_degree_four_generic_indecomposable():
    f = Q(1, 1, 0, 0, 1)  # x^4 + x + 1 has no quadratic right factor
    ch = decompose(f)
    assert len(ch.factors) == 1


def test_decompose_nontrivial_example():
    g, h = Q(2, -1, 1), Q(0, 3, 0, 1)  # (x^2 - x + 2) o (x^3 + 3x)
    f = compose(g, h)
    ch = decompose(f)
    assert ch.recompose() == f
    assert len(ch.factors) == 2
    assert [ratpoly.degree(x) for x in ch.factors] == [2, 3]


def test_decompose_roundtrip_random():
    rng = random.Random(17)
    for _ in range(60):
        k = rng.choice([2, 3])
        factors = []
        for _ in range(k):
            deg = rng.choice([2, 3, 4])
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
            factors.append(ratpoly.as_poly(coeffs + [F(1)]))
        f = factors[0]
        for g in factors[1:]:
            f = compose(f, g)
        ch = decompose(f)
        assert ch.recompose() == f
        assert math.prod(ratpoly.degree(g) for g in ch.factors) == ratpoly.degree(f)


def test_recognize_dickson_frozen():
    u = ratpoly.poly_add(
        compose(dickson(3, F(1)), Q(-1, 1)), Q(7)
    )  # D_3(x - 1, 1) + 7
    form = recognize_dickson(u)
    assert (form.n, form.a, form.shift, form.constant) == (3, F(1), F(-1), F(7))
    assert recognize_dickson(Q(0, 0, 1, 0, 0, 1)) is None  # x^5 + x^2
    form = recognize_dickson(Q(0, 1, 1, 1))  # x^3 + x^2 + x
    assert form is not None
    assert (form.a, form.shift, form.constant) == (F(-2, 9), F(1, 3), F(-7, 27))


def test_recognize_dickson_roundtrip():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(3, 8)
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        shift = F(rng.randint(-4, 4), rng.randint(1, 3))
        const = F(rng.randint(-9, 9), rng.randint(1, 5))
        u = ratpoly.poly_add(compose(dickson(n, a), (shift, F(1))), (const,))
        form = recognize_dickson(u)
        assert form is not None
        assert (form.n, form.a, form.shift, form.constant) == (n, a, shift, const)


def test_recognize_plain_dickson():
    for n in (3, 5, 7):
        form = recognize_dickson(dickson(n, F(2)))
        assert (form.n, form.a, form.shift, form.constant) == (n, F(2), F(0), F(0))


def test_find_dickson_factor():
    f = compose(Q(0, 1, 1), dickson(5, F(1)))
    fact = find_dickson_factor(f, require_gpp=True)
    assert fact is not None
    assert (fact.spec.n, fact.spec.a) == (5, F(1))
    assert fact.outer == Q(0, 1, 1) and fact.inner == ratpoly.X

    # sandwiched: (x + 2) o D_3(x, 2) o (x^2 + 3x)
    f = compose(compose(Q(2, 1), dickson(3, F(2))), Q(0, 3, 0, 1))
    fact = find_dickson_factor(f)
    assert fact is not None and fact.spec.n == 3
    rebuilt = compose(
        compose(fact.outer, dickson(fact.spec.n, fact.spec.a)), fact.inner
    )
    assert rebuilt == f


def test_find_dickson_factor_gpp_filter():
    # x^4 = x^2 o x^2 has only D_2 factors, never a GPP
    assert find_dickson_factor(ratpoly.poly_pow(ratpoly.X, 4), require_gpp=True) is None
    # x^6 contains D_3(x, 0) = x^3
    fact = find_dickson_factor(ratpoly.poly_pow(ratpoly.X, 6), require_gpp=True)
    assert fact is not None and (fact.spec.n, fact.spec.a) == (3, F(0))
    # but without the filter the first deg >= 2 factor is found
    assert find_dickson_factor(ratpoly.poly_pow(ratpoly.X, 4)) is not None


def test_no_dickson_factor_in_generic_poly():
    assert find_dickson_factor(Q(1, 1, 0, 0, 1)) is None  # indecomposable, not Dickson
    form = find_dickson_factor(Q(0, 0, 1))  # x^2 = D_2(x, 0)
    assert form is not None and form.spec.n == 2
