"""Exponential sums, L-polynomials, and q-adic Newton polygons.

Frozen values were derived by hand first:
  S_1(x^2/F_3) = zeta^0 + zeta^1 + zeta^1 = 1 + 2 zeta,
  S_2(x^2/F_3) = 5 + 2 zeta + 2 zeta^2 = 3  (Tr(x^2) on F_9 is 2(a^2 - b^2)),
  L(x^2/F_3)   = 1 + (1 + 2 zeta) t, and v_pi(1 + 2 zeta) = 1 gives the
  one-slope polygon (0,0)-(1,1/2).
"""

import math
import random
from fractions import Fraction

import pytest

from galois_action import galois_apply
from npscan.cyclotomic import CycInt, zeta_power
from npscan.errors import (
    BadPlace,
    BudgetExceeded,
    CharacteristicMismatch,
    DegreeCharClash,
    InvariantViolation,
)
from npscan import lfunction
from npscan.fields import DEFAULT_ENUM_BUDGET, build_field
from npscan.lfunction import (
    Character,
    LPolynomial,
    check_half_l_budget,
    exp_sum,
    l_polynomial,
    monomial_polygon,
    newton_polygon,
    np_at_prime,
    np_base_change_check,
    reduce_mod_p,
    trace_counts,
)
from npscan.polygons import hodge_polygon, lies_above, lower_hull, vertical_gap
from npscan import ratpoly

F = Fraction


def Q(*cs):
    return tuple(F(c) for c in cs)


X2 = Q(0, 0, 1)
X3 = Q(0, 0, 0, 1)


def test_character_validation():
    Character(3, 2)
    with pytest.raises(ValueError):
        Character(3, 0)
    with pytest.raises(ValueError):
        Character(3, 3)


def test_trace_counts_x2_f3():
    fbar = reduce_mod_p(X2, 3)
    assert trace_counts(fbar, 1) == (1, 2, 0)  # x^2 in {0,1,1}, Tr = id
    assert trace_counts(fbar, 2) == (5, 2, 2)


def test_exp_sum_frozen():
    fbar = reduce_mod_p(X2, 3)
    chi = Character(3, 1)
    assert exp_sum(fbar, 1, chi) == CycInt(3, (1, 2))
    assert exp_sum(fbar, 2, chi) == CycInt.from_int(3, 3)


def test_exp_sum_of_zero_poly_is_qm():
    for p in (3, 5):
        field = build_field(p, 1)
        zero = field.poly([])
        chi = Character(p, 1)
        for m in (1, 2, 3):
            assert exp_sum(zero, m, chi) == CycInt.from_int(p, p**m)


def test_exp_sum_of_linear_vanishes():
    for p in (3, 5, 7):
        field = build_field(p, 1)
        fbar = field.poly([0, 1])
        assert exp_sum(fbar, 1, Character(p, 1)).is_zero()
        assert exp_sum(fbar, 2, Character(p, 2)).is_zero()


def test_exp_sum_character_action_is_galois():
    fbar = reduce_mod_p(Q(0, 2, 0, 1), 5)
    s1 = exp_sum(fbar, 1, Character(5, 1))
    for c in (2, 3, 4):
        assert exp_sum(fbar, 1, Character(5, c)) == galois_apply(s1, c)


def test_exp_sum_rejects_wrong_characteristic():
    fbar = reduce_mod_p(X2, 3)
    with pytest.raises(CharacteristicMismatch):
        exp_sum(fbar, 1, Character(5, 1))


def test_l_polynomial_x2_f3_frozen():
    fbar = reduce_mod_p(X2, 3)
    L = l_polynomial(fbar)
    assert L.degree == 1
    assert L.coeffs == (CycInt.one(3), CycInt(3, (1, 2)))
    poly = newton_polygon(L)
    assert poly.vertices == ((F(0), F(0)), (F(1), F(1, 2)))


def test_l_polynomial_verify_runs_extra_step():
    """One step past a_(d-1), Newton's identity with S_d gives a_d = 0."""
    fbar = reduce_mod_p(X3, 5)
    chi = Character(5, 1)
    L = l_polynomial(fbar, chi)
    assert L.degree == 2
    sums = [exp_sum(fbar, m, chi) for m in (1, 2, 3)]
    assert lfunction._newton_sum(sums, L.coeffs).is_zero()
    assert not lfunction._newton_sum(sums[:2] + [sums[2] + CycInt.one(5)], L.coeffs).is_zero()


def test_np_x3_at_7_is_hodge():
    assert np_at_prime(X3, 7) == hodge_polygon(3)


def test_np_x3_at_5_frozen():
    poly = np_at_prime(X3, 5)
    assert poly.vertices == ((F(0), F(0)), (F(2), F(1)))
    assert poly.slope_multiset() == ((F(1, 2), F(2)),)
    assert vertical_gap(poly, hodge_polygon(3)) == F(1, 6)


def test_np_always_above_hodge_with_right_endpoint():
    cases = [(X2, 3), (X2, 7), (X3, 5), (X3, 13), (Q(0, 1, 0, 0, 1), 3), (Q(0, 1, 0, 0, 1), 7)]
    for f, p in cases:
        d = ratpoly.degree(ratpoly.as_poly(f))
        poly = np_at_prime(f, p)
        assert lies_above(poly, hodge_polygon(d))
        assert poly.end == (F(d - 1), F(d - 1, 2))


def test_np_at_prime_input_validation():
    with pytest.raises(ValueError):
        np_at_prime(Q(1, 2), 5)  # not monic
    with pytest.raises(ValueError):
        np_at_prime(Q(3), 5)  # constant
    with pytest.raises(BadPlace) as exc:
        np_at_prime(X3, 3)
    assert exc.value.cause == "degree"
    with pytest.raises(BadPlace) as exc:
        np_at_prime((F(0), F(1, 3), F(1)), 3)
    assert exc.value.cause == "nonintegral"


def test_degree_char_clash_at_module_level():
    ext = build_field(3, 1)
    with pytest.raises(DegreeCharClash):
        l_polynomial(ext.poly([0, 0, 0, 1]))


def test_np_independent_of_character():
    for f, p in [(X2, 3), (X3, 5), (X3, 7)]:
        fbar = reduce_mod_p(f, p)
        polys = {
            newton_polygon(l_polynomial(fbar, Character(p, c))) for c in range(1, p)
        }
        assert len(polys) == 1


def half_np(fbar, chi=None, budget=None):
    return newton_polygon(l_polynomial(fbar, chi, budget, half=True))


def _half_l_cells():
    """(p, h, d) with gcd(d, p) = 1 and q^(d-1) small enough for the full path."""
    return [
        (p, h, d)
        for p in (2, 3, 5, 7, 11)
        for h in (1, 2)
        for d in range(1, 8)
        if math.gcd(d, p) == 1 and p ** (h * (d - 1)) <= 10**5
    ]


@pytest.mark.parametrize("p,h,d", _half_l_cells())
def test_half_l_polygon_matches_full_path(p, h, d):
    """The functional-equation polygon equals the full L-polynomial's, for
    general F_q coefficients (not only F_p) and every character."""
    rng = random.Random(f"half-l-{p}-{h}-{d}")
    field = build_field(p, h)
    for _ in range(3):
        coeffs = [rng.randrange(field.q) for _ in range(d)] + [rng.randrange(1, field.q)]
        fbar = field.poly([field.from_index(k) for k in coeffs])
        for c in range(1, p):
            chi = Character(p, c)
            full = newton_polygon(l_polynomial(fbar, chi))
            assert half_np(fbar, chi) == full, (fbar, c)


@pytest.mark.parametrize(
    "p,h,d", [(p, h, d) for p, h, d in _half_l_cells() if p ** (h * d) <= 10**6]
)
def test_full_l_satisfies_newton_identity_at_s_d(p, h, d):
    """L has degree d - 1, so a_d = 0: sum_{j<=d} S_j a_(d-j) vanishes."""
    rng = random.Random(f"s-d-{p}-{h}-{d}")
    field = build_field(p, h)
    coeffs = [rng.randrange(field.q) for _ in range(d)] + [rng.randrange(1, field.q)]
    fbar = field.poly([field.from_index(k) for k in coeffs])
    chi = Character(p, rng.randrange(1, p))
    sums = [exp_sum(fbar, m, chi) for m in range(1, d + 1)]
    assert lfunction._newton_sum(sums, l_polynomial(fbar, chi).coeffs).is_zero()


def test_half_l_enumerates_only_up_to_q_to_the_k():
    # D_5-like quintic over F_11: K = 2, so F_{11^2} is the largest field
    fbar = reduce_mod_p(Q(0, 5, 0, -5, 0, 1), 11)
    assert half_np(fbar, budget=11**2) == newton_polygon(l_polynomial(fbar))
    with pytest.raises(BudgetExceeded):
        half_np(fbar, budget=11**2 - 1)
    with pytest.raises(BudgetExceeded):
        l_polynomial(fbar, budget=11**2)
    # d <= 2 enumerates nothing
    assert half_np(reduce_mod_p(X2, 7), budget=0) == lower_hull(
        [(0, 0), (1, F(1, 2))]
    )
    assert half_np(reduce_mod_p(Q(0, 1), 7), budget=0).vertices == ((0, 0),)


def test_half_l_input_validation():
    with pytest.raises(DegreeCharClash):
        half_np(build_field(3, 1).poly([0, 0, 0, 1]))
    with pytest.raises(ValueError):
        half_np(build_field(3, 1).poly([1]))
    fbar = reduce_mod_p(Q(0, 5, 0, -5, 0, 1), 11)
    half, full = l_polynomial(fbar, half=True), l_polynomial(fbar)
    assert half.degree == full.degree == 4
    assert half.coeffs == full.coeffs[:3]
    with pytest.raises(ValueError):
        LPolynomial(11, 1, 4, full.coeffs[:4])


def test_half_l_polygon_checks_hodge_bound_on_computed_half():
    one = CycInt.one(5)
    # a_1 = 1 has v_pi = 0, below k(k+1)/(2d) = 1/3 for d = 3
    with pytest.raises(InvariantViolation):
        newton_polygon(LPolynomial(5, 1, 2, (one, one)))


def stickelberger_polygon(d, p):
    """NP of x^d at p from Stickelberger's theorem on Gauss sums: with r the
    order of p mod d, each a = 1..d-1 gives one slope (1/r) sum_{i<r} {p^i a/d}."""
    r = next(r for r in range(1, d + 1) if pow(p, r, d) == 1)
    slopes = sorted(sum(F(pow(p, i, d) * a % d, d) for i in range(r)) / r for a in range(1, d))
    points = [(F(0), F(0))]
    for k, slope in enumerate(slopes, 1):
        points.append((F(k), points[-1][1] + slope))
    return lower_hull(points)


@pytest.mark.parametrize(
    "d,p",
    [
        (3, 10007), (3, 10009), (4, 503), (4, 509), (4, 10007), (4, 10009),
        (5, 211), (5, 223), (5, 227), (5, 229), (5, 2011),
    ],
)
def test_np_of_monomial_matches_stickelberger(d, p):
    """Oracle only: np_at_prime still enumerates.  Every prime here is out of
    the full path's reach, which enumerates F_{p^(d-1)}.  At (5, 2011),
    p = 1 mod 5, so a_2 needs the dense product S_1 a_1 of two vectors with
    2010 entries."""
    assert p ** (d - 1) > DEFAULT_ENUM_BUDGET
    xd = Q(*[0] * d, 1)
    assert np_at_prime(xd, p) == stickelberger_polygon(d, p)


def test_stickelberger_oracle_sanity():
    assert stickelberger_polygon(3, 10007).slope_multiset() == ((F(1, 2), F(2)),)
    assert stickelberger_polygon(3, 10009) == hodge_polygon(3)
    for d, p in ((3, 5), (3, 7), (5, 11), (5, 7), (4, 7), (7, 5)):
        assert np_at_prime(Q(*[0] * d, 1), p) == stickelberger_polygon(d, p), (d, p)


@pytest.mark.parametrize(
    "d,p",
    [
        (3, 10007), (3, 10009), (4, 503), (4, 509), (4, 10007), (4, 10009),
        (5, 211), (5, 223), (5, 227), (5, 229), (5, 2011),
    ],
)
def test_monomial_polygon_matches_np_and_stickelberger(d, p):
    """The closed form that scan rows take, at the oracle's primes."""
    assert monomial_polygon(d, p) == np_at_prime(Q(*[0] * d, 1), p) == stickelberger_polygon(d, p)


def test_monomial_polygon_edges():
    assert monomial_polygon(1, 7).vertices == ((0, 0),)
    assert monomial_polygon(2, 2 * 10**9 + 11) == hodge_polygon(2)
    assert monomial_polygon(7, 2) == stickelberger_polygon(7, 2)  # r = 3
    with pytest.raises(DegreeCharClash):
        monomial_polygon(6, 3)
    with pytest.raises(ValueError):
        monomial_polygon(0, 5)


def test_monomial_polygon_slopes_are_stickelbergers():
    """Every class of good places p <= 1000 for d <= 12: the slopes, each as
    often as its segment is long, are Stickelberger's, computed here."""
    primes = [p for p in range(2, 1001) if all(p % k for k in range(2, math.isqrt(p) + 1))]
    for d in range(1, 13):
        for p in primes:
            if math.gcd(d, p) != 1:
                continue
            r = next(r for r in range(1, d + 1) if pow(p, r, d) == 1 % d)
            want = sorted(
                F(sum(pow(p, i, d) * a % d for i in range(r)), d * r) for a in range(1, d)
            )
            segments = monomial_polygon(d, p).slope_multiset()
            got = [s for s, length in segments for _ in range(int(length))]
            assert got == want, (d, p)


def test_monomial_polygon_is_one_object_per_residue_class():
    for d, primes in ((3, (7, 13, 10009)), (5, (2, 7, 17, 10007)), (12, (5, 17, 29))):
        polys = [monomial_polygon(d, p) for p in primes]
        assert all(poly is polys[0] for poly in polys), d
    assert monomial_polygon(5, 2) is not monomial_polygon(5, 3)  # equal, other classes
    assert monomial_polygon(5, 2) == monomial_polygon(5, 3)


@pytest.mark.parametrize("d,p", [(0, 5), (-3, 5), (0, 1)])
def test_monomial_polygon_rejects_bad_degree(d, p):
    with pytest.raises(ValueError):
        monomial_polygon(d, p)


@pytest.mark.parametrize("d,p", [(6, 3), (6, 2), (5, 5), (4, 2), (3, 0), (5, 15)])
def test_monomial_polygon_rejects_a_place_dividing_d(d, p):
    """The memo is keyed by p mod d; a bad p is refused even where a good
    prime's class was asked for first."""
    monomial_polygon(d, 7 if d % 7 else 11)
    with pytest.raises(DegreeCharClash):
        monomial_polygon(d, p)


def test_half_l_budget_precheck_refuses_what_half_l_refuses():
    """The closed-form scan rows and the scan cache apply this check: it
    must refuse exactly what l_polynomial(half=True) refuses, with the same
    message (the first m with q^m over the budget)."""
    def refusal(call):
        try:
            call()
        except BudgetExceeded as exc:
            return str(exc)
        return None

    fbar = reduce_mod_p(Q(0, 0, 0, 0, 0, 1), 11)  # d = 5: F_11 and F_121
    outcomes = []
    for budget in (0, 10, 11, 120, 121, None):
        pre = refusal(lambda: check_half_l_budget(11, 5, budget))
        assert pre == refusal(lambda: l_polynomial(fbar, budget=budget, half=True)), budget
        outcomes.append(pre)
    assert outcomes == [
        "enumeration of 11 elements exceeds budget 0",
        "enumeration of 11 elements exceeds budget 10",
        "enumeration of 121 elements exceeds budget 11",
        "enumeration of 121 elements exceeds budget 120",
        None,
        None,
    ]
    check_half_l_budget(10**9 + 7, 2, budget=0)  # d <= 2 enumerates nothing


def test_l_coefficients_are_galois_conjugates():
    fbar = reduce_mod_p(X3, 5)
    base = l_polynomial(fbar, Character(5, 1))
    for c in (2, 3, 4):
        twisted = l_polynomial(fbar, Character(5, c))
        assert twisted.coeffs == tuple(galois_apply(a, c) for a in base.coeffs)


def test_base_change_invariance():
    assert np_base_change_check(reduce_mod_p(X2, 3), 2)
    assert np_base_change_check(reduce_mod_p(X2, 3), 3)
    assert np_base_change_check(reduce_mod_p(X3, 5), 2)


def test_base_change_histograms_each_pushed_polynomial_once(monkeypatch):
    """fext over F_{q^n} at m and fbar over F_q at n m push into one field:
    the base-change check histograms that polynomial once, as the one
    histogram cache is keyed by the pushed polynomial."""
    from npscan import kernels

    seen = []
    exact = kernels.trace_histogram

    def counted(fext):
        seen.append(fext)
        return exact(fext)

    monkeypatch.setattr(kernels, "trace_histogram", counted)
    lfunction._full_l_polynomial.cache_clear()
    lfunction._pushed_histogram.cache_clear()
    fbar = reduce_mod_p(Q(1, 2, 0, 1, 0, 1), 3)  # d = 5: F_3 .. F_{3^8}
    assert np_base_change_check(fbar, 2)
    assert len(seen) == len(set(seen)) == 6  # F_{3^m}, m = 1, 2, 3, 4, 6, 8
    assert sorted(f.field.e for f in seen) == [1, 2, 3, 4, 6, 8]
    assert lfunction._pushed_histogram.cache_info().misses == 6


def test_full_l_polynomial_is_shared():
    fbar = reduce_mod_p(X3, 5)
    full = l_polynomial(fbar)
    assert l_polynomial(fbar, Character(5, 1), budget=10**6) is full
    assert l_polynomial(fbar, Character(5, 2)) is not full


def test_cached_l_polynomial_is_refused_by_a_smaller_budget():
    """A memoized L raises the cold call's BudgetExceeded: the first m with
    q^m over the budget."""
    fbar = reduce_mod_p(X3, 5)  # full L enumerates F_5 and F_25
    cases = [({"budget": 24}, 25), ({"budget": 4}, 5)]
    cold = {}
    lfunction._full_l_polynomial.cache_clear()
    for kwargs, size in cases:
        with pytest.raises(BudgetExceeded) as exc:
            l_polynomial(fbar, **kwargs)
        cold[size] = str(exc.value)
    l_polynomial(fbar, budget=10**6)
    for kwargs, size in cases:
        with pytest.raises(BudgetExceeded) as exc:
            l_polynomial(fbar, **kwargs)
        assert str(exc.value) == cold[size] == (
            f"enumeration of {size} elements exceeds budget {kwargs['budget']}"
        )


def test_budget_enforced_even_after_caching():
    fbar = reduce_mod_p(X2, 3)
    assert trace_counts(fbar, 2) == (5, 2, 2)  # populates the cache
    with pytest.raises(BudgetExceeded):
        trace_counts(fbar, 2, budget=5)
    with pytest.raises(BudgetExceeded):
        exp_sum(fbar, 4, Character(3, 1), budget=50)


def test_sum_collapse_under_permutation_inner_factor():
    """Composing with an inner polynomial that permutes F_{q^m} cannot
    change S_m.  D_3(x,0) = x^3 permutes F_{5^m} iff gcd(3, 5^m - 1) = 1,
    so m = 1 and m = 3 must agree (m = 2 need not)."""
    f1 = Q(0, 1, 1)  # x^2 + x
    comp = ratpoly.poly_compose(f1, Q(0, 0, 0, 1))
    f1bar, compbar = reduce_mod_p(f1, 5), reduce_mod_p(comp, 5)
    chi = Character(5, 1)
    for m in (1, 3):
        assert exp_sum(f1bar, m, chi) == exp_sum(compbar, m, chi)


def test_sum_collapse_dickson_7_1_5():
    from npscan.dickson import dickson

    f1 = Q(0, 1, 1)
    comp = ratpoly.poly_compose(f1, dickson(5, F(1)))
    f1bar, compbar = reduce_mod_p(f1, 7), reduce_mod_p(comp, 7)
    chi = Character(7, 1)
    for m in (1, 5):
        assert exp_sum(f1bar, m, chi) == exp_sum(compbar, m, chi)
