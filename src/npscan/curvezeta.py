"""Zeta numerators of the covers y^p - y = g(x) and their cross-checks.

For gbar of degree d over F_q (gcd(d, p) = 1) the smooth projective curve
C(gbar) has genus g = (p-1)(d-1)/2 and zeta numerator P_1 of degree 2g
with integer coefficients.  Point counts determine b_1..b_g through the
Newton-identity recurrence; the functional equation b_{2g-i} = q^{g-i} b_i
supplies the top half, which halves the largest enumeration to q^g.

P_1 factors as the product of the p-1 conjugate L-polynomials, its slope-
lambda segment is p-1 times as long as the L-polynomial's, and a finite
morphism of curves makes the covered curve's P_1 divide the covering one's.
All three facts are exposed here as executable checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import ratpoly
from ._numpy import np
from .cyclotomic import CycInt, as_rational_integer, int_valuation, poly_mul
from .errors import DegreeCharClash, InternalDivisibility
from .fields import FieldPolynomial, check_enum_budget
from .lfunction import Character, _newton_sum, l_polynomial, newton_polygon, trace_counts
from .polygons import ConvexPolygon, lower_hull


def count_curve_points(gbar: FieldPolynomial, m: int, budget: int | None = None) -> int:
    """#C(gbar)(F_{q^m}) = 1 + p * #{x in F_{q^m} : Tr(gbar(x)) = 0}.

    The 1 is the single point at infinity (gcd(d, p) = 1 makes it unique).
    """
    d = gbar.degree
    if d < 1 or math.gcd(d, gbar.field.p) != 1:
        raise DegreeCharClash(f"need gcd(deg, p) = 1 and deg >= 1, got deg = {d}")
    hist = trace_counts(gbar, m, budget)
    return 1 + gbar.field.p * hist[0]


def p1_polynomial(gbar: FieldPolynomial, budget: int | None = None) -> tuple[int, ...]:
    """Coefficients b_0..b_{2g} of the zeta numerator P_1(C(gbar), t)."""
    field = gbar.field
    p, q, d = field.p, field.q, gbar.degree
    if d < 1 or math.gcd(d, p) != 1:
        raise DegreeCharClash(f"need gcd(deg, p) = 1 and deg >= 1, got deg = {d}")
    genus = (p - 1) * (d - 1) // 2
    if genus == 0:
        return (1,)
    check_enum_budget(q**genus, budget)
    # P_1 = prod_c L(chi_c), so its power sums are sum_c S_m(chi_c) = N_m - 1 - q^m
    sums = [count_curve_points(gbar, m, budget) - 1 - q**m for m in range(1, genus + 1)]
    b = [1]
    for k in range(1, genus + 1):
        quo, rem = divmod(_newton_sum(sums, b), k)
        if rem:
            raise InternalDivisibility(f"coefficient b_{k} is not integral")
        b.append(quo)
    b.extend(0 for _ in range(genus + 1, 2 * genus + 1))
    for i in range(genus):
        b[2 * genus - i] = q ** (genus - i) * b[i]
    return tuple(b)


def curve_newton_polygon(b: Sequence[int], p: int, h: int) -> ConvexPolygon:
    """q-adic Newton polygon of an integer polynomial, q = p^h."""
    points = [
        (Fraction(k), Fraction(int_valuation(c, p), h))
        for k, c in enumerate(b)
        if c != 0
    ]
    return lower_hull(points)


def product_formula_check(gbar: FieldPolynomial, budget: int | None = None) -> bool:
    """P_1(C(gbar), t) equals the product of L(gbar, chi_c, t) over c = 1..p-1.

    The product is expanded exactly in Z[zeta_p][t], one whole polynomial
    per character (cyclotomic.poly_mul); every coefficient must come out
    rational, and the integer polynomials must agree.  P_1 is computed
    right after L(gbar, chi_1), so a budget that refuses q^genus refuses it
    before the other p - 2 L-polynomials are computed.
    """
    p = gbar.field.p
    lps = [l_polynomial(gbar, Character(p, 1), budget)]
    b = p1_polynomial(gbar, budget)
    lps += (l_polynomial(gbar, Character(p, c), budget) for c in range(2, p))
    product = CycInt.one(p).vec[None]
    for lp in lps:
        product = poly_mul(p, product, np.stack([a.vec for a in lp.coeffs]))
    lhs = tuple(as_rational_integer(CycInt(p, row)) for row in product)
    return lhs == b


def slope_length_relation_check(fbar: FieldPolynomial, budget: int | None = None) -> bool:
    """Every slope segment of the curve polygon is (p-1) times the L one."""
    field = fbar.field
    np_l = newton_polygon(l_polynomial(fbar, None, budget))
    b = p1_polynomial(fbar, budget)
    np_c = curve_newton_polygon(b, field.p, field.e)
    lengths_l = dict(np_l.slope_multiset())
    lengths_c = dict(np_c.slope_multiset())
    slopes = set(lengths_l) | set(lengths_c)
    return all(
        lengths_c.get(lam, Fraction(0)) == (field.p - 1) * lengths_l.get(lam, Fraction(0))
        for lam in slopes
    )


def divisibility_check(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """inner divides outer in Q[t] with an integer quotient and zero remainder."""
    fi = ratpoly.as_poly(inner)
    fo = ratpoly.as_poly(outer)
    if not fi:
        return False
    quo, rem = ratpoly.poly_divmod(fo, fi)
    return not rem and all(c.denominator == 1 for c in quo)
