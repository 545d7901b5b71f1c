"""Artin-Schreier curve point counts and zeta numerators.

The point-count oracle below enumerates affine pairs (x, y) directly and
adds the single point at infinity; it never touches the histogram kernels.
"""

from fractions import Fraction

import pytest

from npscan.curvezeta import (
    count_curve_points,
    curve_newton_polygon,
    divisibility_check,
    p1_polynomial,
    product_formula_check,
    slope_length_relation_check,
)
from npscan.errors import BudgetExceeded, DegreeCharClash
from npscan.fields import build_field, embed
from npscan.lfunction import _newton_sum, reduce_mod_p
from npscan import ratpoly

F = Fraction


def Q(*cs):
    return tuple(F(c) for c in cs)


def brute_count(gbar, m):
    base = gbar.field
    ext = build_field(base.p, base.e * m)
    g = embed(base, ext).map_poly(gbar) if ext != base else gbar
    affine = 0
    for x in ext.elements():
        rhs = g(x)
        for y in ext.elements():
            if y**base.p - y == rhs:
                affine += 1
    return affine + 1


@pytest.mark.parametrize(
    "f,p,m",
    [(Q(0, 0, 1), 3, 1), (Q(0, 0, 1), 3, 2), (Q(0, 1, 1), 5, 1), (Q(0, 0, 0, 1), 5, 1)],
)
def test_point_counts_match_bruteforce(f, p, m):
    gbar = reduce_mod_p(f, p)
    assert count_curve_points(gbar, m) == brute_count(gbar, m)


def test_counts_x2_f3_frozen():
    gbar = reduce_mod_p(Q(0, 0, 1), 3)
    assert count_curve_points(gbar, 1) == 4
    assert count_curve_points(gbar, 2) == 16


def test_p1_x2_f3_frozen():
    gbar = reduce_mod_p(Q(0, 0, 1), 3)
    assert p1_polynomial(gbar) == (1, 0, 3)
    poly = curve_newton_polygon((1, 0, 3), 3, 1)
    assert poly.vertices == ((F(0), F(0)), (F(2), F(1)))


def test_p1_shape_and_functional_equation():
    for f, p in [(Q(0, 0, 1), 3), (Q(0, 1, 1), 5), (Q(0, 0, 0, 1), 5)]:
        gbar = reduce_mod_p(f, p)
        d = gbar.degree
        genus = (p - 1) * (d - 1) // 2
        b = p1_polynomial(gbar)
        assert len(b) == 2 * genus + 1
        assert b[0] == 1
        assert b[2 * genus] == p**genus
        for i in range(2 * genus + 1):
            assert b[2 * genus - i] == p ** (genus - i) * b[i]


def test_genus_zero_is_trivial():
    gbar = reduce_mod_p(Q(0, 1), 3)
    assert p1_polynomial(gbar) == (1,)


def implied_power_sums(b, upto):
    """Power sums of the reciprocal roots of sum b_k t^k, via Newton's identities."""
    b = list(b) + [0] * upto
    sums = []
    for k in range(1, upto + 1):  # k b_k = -sum_{j<=k} s_j b_(k-j), solved for s_k
        sums.append(-k * b[k] - _newton_sum(sums + [0], b[:k]))
    return sums


def test_implied_power_sums_redundancy():
    """b_k for k > genus comes from the functional equation; the power sums
    it implies must match independently computed point counts."""
    gbar = reduce_mod_p(Q(0, 0, 1), 3)
    b = p1_polynomial(gbar)
    ps = implied_power_sums(b, 2)
    assert ps == [0, -6]
    for k in (1, 2):
        assert ps[k - 1] == 1 + 3**k - count_curve_points(gbar, k)

    gbar = reduce_mod_p(Q(0, 0, 0, 1), 5)  # genus 4, P1 of degree 8
    b = p1_polynomial(gbar)
    ps = implied_power_sums(b, 8)
    for k in range(5, 9):
        assert ps[k - 1] == 1 + 5**k - count_curve_points(gbar, k)


@pytest.mark.parametrize(
    "f,p", [(Q(0, 0, 1), 3), (Q(0, 1, 1), 3), (Q(0, 0, 0, 1), 5), (Q(0, 1, 1), 5)]
)
def test_product_formula(f, p):
    assert product_formula_check(reduce_mod_p(f, p))


@pytest.mark.parametrize(
    "f,p", [(Q(0, 0, 1), 3), (Q(0, 0, 0, 1), 5), (Q(0, 1, 1), 5)]
)
def test_slope_length_relation(f, p):
    assert slope_length_relation_check(reduce_mod_p(f, p))


def test_divisibility_under_composition():
    # x^4 = x^2 o x^2: C(x^4) covers C(x^2) over F_3
    small = p1_polynomial(reduce_mod_p(Q(0, 0, 1), 3))
    big = p1_polynomial(reduce_mod_p(Q(0, 0, 0, 0, 1), 3))
    assert divisibility_check(small, big)
    assert divisibility_check((1,), big)
    assert divisibility_check(big, big)


def test_divisibility_rejects_non_factor():
    assert not divisibility_check((1, 2), (1, 2, 5))
    assert not divisibility_check((1, 0, 3), (1, 0, 0, 7))


def test_budget_and_bad_degree():
    with pytest.raises(BudgetExceeded):
        p1_polynomial(reduce_mod_p(Q(0, 0, 0, 1), 7), budget=1000)  # genus 6
    with pytest.raises(DegreeCharClash):
        p1_polynomial(reduce_mod_p(Q(0, 0, 0, 1), 3))
    with pytest.raises(DegreeCharClash):
        count_curve_points(reduce_mod_p(Q(0, 0, 0, 1), 3), 1)
