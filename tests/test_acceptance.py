"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`.  Each test also prints an
[acceptance] line (bypassing capture) with its wall-clock time.  All
comparisons are exact rational/integer equality; the only tolerances are the
stated runtime ceilings, which are asserted.

C01 and C02 also compare every row of a scan of x^3 to p = 100, which the
scan takes from Stickelberger's closed form, with np_at_prime's polygon.

The final test replays every Newton polygon collected by the earlier tests
against the Hodge lower bound and the forced endpoint, and recomputes every
np_at_prime polygon (which comes from half of the L-polynomial and the
functional equation, so its endpoint holds by construction) on the full
l_polynomial path.  It must run after them (pytest's in-file definition
order guarantees that).
"""

import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from npscan.curvezeta import (
    divisibility_check,
    p1_polynomial,
    product_formula_check,
    slope_length_relation_check,
)
from npscan.dickson import (
    compose,
    decompose,
    dickson,
    dickson_over_field,
    dickson_perm_criterion,
    is_admissible,
    is_permutation_bruteforce,
)
from npscan.fields import build_field, is_prime
from npscan.lfunction import (
    Character,
    exp_sum,
    l_polynomial,
    newton_polygon,
    np_base_change_check,
    np_at_prime,
    reduce_mod_p,
)
from npscan.polygons import hodge_polygon, lies_above, lower_hull, vertical_gap
from npscan.scan import ScanOptions, run_scan
from npscan import ratpoly

F = Fraction
X2 = (F(0), F(0), F(1))
X3 = (F(0), F(0), F(0), F(1))
X4X = (F(0), F(1), F(0), F(0), F(1))

# every polygon any criterion computes lands here as (polygon, d) for the
# Adolphson-Sperber floor check in criterion 11
POLYGONS: list[tuple[object, int]] = []


# every np_at_prime result as (f, p, c, polygon), for the full-path replay
NP_CASES: list[tuple[object, int, int, object]] = []


def note_polygon(poly, d):
    POLYGONS.append((poly, d))
    return poly


def note_np(f, p, c=1):
    poly = np_at_prime(f, p, c)
    NP_CASES.append((f, p, c, poly))
    return note_polygon(poly, ratpoly.degree(ratpoly.as_poly(f)))


@contextmanager
def report(cid, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(
            f"[acceptance] {cid} {name}: FAIL ({time.perf_counter() - t0:.1f}s)",
            file=sys.__stdout__,
            flush=True,
        )
        raise
    print(
        f"[acceptance] {cid} {name}: PASS ({time.perf_counter() - t0:.1f}s)",
        file=sys.__stdout__,
        flush=True,
    )


def primes(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


_X3_SCAN = None


def x3_scan_polygons():
    """p -> polygon of each row of run_scan(X3, p_max=100).  The scan takes
    them from Stickelberger's closed form; C01 and C02 compare them with
    np_at_prime's, from half of L."""
    global _X3_SCAN
    if _X3_SCAN is None:
        records, _ = run_scan(X3, ScanOptions(p_max=100))
        _X3_SCAN = {rec.p: rec.polygon for rec in records}
    return _X3_SCAN


def test_c01_hodge_equality_family():
    with report("C01", "NP = HP for x^3 at p = 1 mod 3, p <= 100"):
        t0 = time.perf_counter()
        hp3 = hodge_polygon(3)
        assert hp3.vertices == ((F(0), F(0)), (F(1), F(1, 3)), (F(2), F(1)))
        ps = [p for p in primes(2, 100) if p % 3 == 1]
        assert ps == [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97]
        scanned = x3_scan_polygons()
        for p in ps:
            assert scanned[p] == note_np(X3, p) == hp3, p
        assert time.perf_counter() - t0 < 10.0


def test_c02_gap_bound_at_inert_primes():
    with report("C02", "gap 1/6 and doubled slope for x^3 at p = 2 mod 3"):
        t0 = time.perf_counter()
        expected = lower_hull([(0, 0), (2, 1)])
        hp3 = hodge_polygon(3)
        ps = [p for p in primes(5, 100) if p % 3 == 2]
        assert ps == [5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89]
        scanned = x3_scan_polygons()
        # the scan's other rows: p = 2 here, p = 1 mod 3 in C01
        assert set(scanned) == {2, *ps, *(p for p in primes(2, 100) if p % 3 == 1)}
        assert scanned[2] == note_np(X3, 2) == expected
        for p in ps:
            poly = note_np(X3, p)
            assert scanned[p] == poly == expected, p
            assert poly.slope_multiset() == ((F(1, 2), F(2)),), p
            assert vertical_gap(poly, hp3) == F(1, 6), p
        assert time.perf_counter() - t0 < 10.0


def test_c03_oscillation_for_dickson_factor():
    with report(
        "C03", "D_5(x,1) oscillates: admissible p=7 vs split p=11; x^4+x, unhinted D_5 do not"
    ):
        t0 = time.perf_counter()
        f = dickson(5, F(1))
        assert f == (F(0), F(5), F(0), F(-5), F(0), F(1))
        assert is_admissible(7, F(1), 5).admissible
        poly7 = note_np(f, 7)
        assert any(length >= 2 for _, length in poly7.slope_multiset())
        assert vertical_gap(poly7, hodge_polygon(5)) >= F(1, 10)
        poly11 = note_np(f, 11)
        assert poly11 == hodge_polygon(5)
        _, summary = run_scan(f, ScanOptions(p_max=11))
        assert summary.verdict == "oscillates (limit cannot exist)"
        # the verdict needs the hypothesis: gaps with no global permutation
        # factor behind them, or with D_5's factor not looked for, back none
        _, x4x = run_scan(X4X, ScanOptions(p_max=30, timing=False))
        _, unhinted = run_scan(f, ScanOptions(p_max=11, auto_hint=False))
        for negative in (x4x, unhinted):
            assert negative.n_np_eq_hp and negative.n_gap_witness
            assert negative.verdict == "no oscillation witnessed up to bound"
        assert time.perf_counter() - t0 < 60.0


def _genus(p, d):
    return (p - 1) * (d - 1) // 2


def _grid_instances():
    """3 seeded random monic gbar per (p, d) cell, within the p^g <= 10^7 budget."""
    rng = random.Random(20260814)
    out = []
    for p in (3, 5, 7):
        field = build_field(p, 1)
        for d in range(2, 6):
            if math.gcd(d, p) != 1:
                continue
            if p ** _genus(p, d) > 10**7:
                continue  # q^g budget: excludes (7, 4) and (7, 5)
            for _ in range(3):
                coeffs = [rng.randrange(p) for _ in range(d)] + [1]
                out.append(field.poly(coeffs))
    return out


_GRID = None


def grid():
    global _GRID
    if _GRID is None:
        _GRID = _grid_instances()
    return _GRID


def test_c04_product_formula_grid():
    with report("C04", "P_1(C(g)) = prod_chi L(g, chi) on the (p, d) grid"):
        x2bar = reduce_mod_p(X2, 3)
        assert p1_polynomial(x2bar) == (1, 0, 3)  # closed form 1 + 3t^2
        assert product_formula_check(x2bar)
        cells = grid()
        assert len(cells) == 3 * 8  # 8 surviving cells
        for gbar in cells:
            assert product_formula_check(gbar), gbar
            note_polygon(newton_polygon(l_polynomial(gbar)), gbar.degree)


def test_c05_slope_length_relation():
    with report("C05", "curve slope lengths are (p-1) x L-function lengths"):
        for gbar in grid():
            assert slope_length_relation_check(gbar), gbar
        assert slope_length_relation_check(reduce_mod_p(X2, 3))


def _curve_p1_int(f, p):
    fbar = reduce_mod_p(ratpoly.as_poly(f), p)
    return p1_polynomial(fbar)


def test_c06_zeta_numerator_divisibility():
    with report("C06", "P_1 of the outer composite divides P_1 of the whole"):
        # the named instance: x^6 = x^3 o x^2 over F_5
        small = _curve_p1_int(X3, 5)
        big = _curve_p1_int(ratpoly.poly_pow(ratpoly.X, 6), 5)
        assert divisibility_check(small, big)
        # 3 random f = f_1 o D_3(x, 0) o f_3, total degree <= 6, within budget
        rng = random.Random(7)
        d3 = dickson(3, F(0))
        cases = [(5, 1, 2), (5, 2, 1), (7, 1, 1)]  # (p, deg f_1, deg f_3)
        for p, d1, d3deg in cases:
            f1 = ratpoly.as_poly([F(rng.randrange(p)) for _ in range(d1)] + [F(1)])
            f3 = ratpoly.as_poly([F(rng.randrange(p)) for _ in range(d3deg)] + [F(1)])
            outer = compose(f1, d3)
            whole = compose(outer, f3)
            assert ratpoly.degree(whole) <= 6
            assert divisibility_check(_curve_p1_int(outer, p), _curve_p1_int(whole, p))


def test_c07_sum_equality_under_permutation_composition():
    with report("C07", "S_m(f_1) = S_m(f_1 o D_5(x,1)) at (7, 1, 5), m in {1, 5}"):
        f1 = (F(0), F(1), F(1))  # x^2 + x
        comp = compose(f1, dickson(5, F(1)))
        for m in (1, 5):
            ext = build_field(7, m)
            fb = ext.poly([int(c) % 7 for c in f1])
            cb = ext.poly([int(c) % 7 for c in comp])
            for c in range(1, 7):
                chi = Character(7, c)
                assert exp_sum(fb, 1, chi) == exp_sum(cb, 1, chi), (m, c)


def test_c08_character_independence_and_base_change():
    with report("C08", "NP free of the character choice and stable under base change"):
        for f in (X2, X3, X4X):
            d = ratpoly.degree(f)
            for p in (3, 5, 7):
                if math.gcd(d, p) != 1:
                    continue
                fbar = reduce_mod_p(f, p)
                polys = {note_np(f, p, c) for c in range(1, p)}
                assert len(polys) == 1, (f, p)
                assert np_base_change_check(fbar, 2), (f, p)


def test_c09_permutation_criterion_oracle_equivalence():
    with report("C09", "Dickson criterion == brute force, n <= 12, q <= 49"):
        t0 = time.perf_counter()
        qs = [
            q
            for q in range(2, 50)
            if any(q == p**e for p in primes(2, 49) for e in range(1, 6) if p**e <= 49)
        ]
        assert len(qs) == 23
        for q in qs:
            p = next(p for p in primes(2, q) if q % p == 0)
            e = round(math.log(q, p))
            field = build_field(p, e)
            for n in range(1, 13):
                for a in field.elements():
                    got = dickson_perm_criterion(n, a)
                    want = is_permutation_bruteforce(dickson_over_field(n, a))
                    assert got == want, (q, n, a)
        assert time.perf_counter() - t0 < 60.0


def test_c10_dickson_algebra():
    with report("C10", "Dickson identities and 200 decompose round-trips"):
        for a in (F(0), F(1), F(-2), F(3, 4)):
            for n in range(1, 13):
                d = dickson(n, a)
                for y in (F(1), F(-2), F(3, 2)):
                    assert ratpoly.poly_eval(d, y + a / y) == y**n + (a / y) ** n
        for n in range(1, 13):
            assert dickson(n, F(0)) == ratpoly.poly_pow(ratpoly.X, n)
        for m, n in ((2, 3), (3, 2), (2, 5), (3, 4)):
            for a in (F(1), F(-1), F(2, 3)):
                assert dickson(m * n, a) == compose(dickson(m, a**n), dickson(n, a))
        for n in (2, 3, 5):
            for c in (F(2), F(-1, 2)):
                a = F(5, 3)
                assert compose(dickson(n, c**2 * a), (F(0), c)) == ratpoly.poly_scale(
                    dickson(n, a), c**n
                )
        rng = random.Random(11)
        for _ in range(200):
            parts = []
            for _ in range(rng.choice([2, 3])):
                deg = rng.choice([2, 3])
                parts.append(
                    ratpoly.as_poly([F(rng.randint(-3, 3)) for _ in range(deg)] + [F(1)])
                )
            f = parts[0]
            for g in parts[1:]:
                f = compose(f, g)
            assert decompose(f).recompose() == f


def test_c11_adolphson_sperber_floor():
    with report("C11", "every NP sits on/above HP, hits the endpoint, matches the full L"):
        assert len(POLYGONS) >= 60  # criteria 1-8 ran first and logged their polygons
        for poly, d in POLYGONS:
            assert lies_above(poly, hodge_polygon(d))
            assert poly.end == (F(d - 1), F(d - 1, 2))
        assert len(NP_CASES) >= 55
        for f, p, c, poly in NP_CASES:
            full = newton_polygon(l_polynomial(reduce_mod_p(f, p), Character(p, c)))
            assert poly == full, (f, p, c)
