"""Rational coefficient polynomial helpers."""

from fractions import Fraction

import pytest

from npscan import ratpoly as rp

F = Fraction


def P(*cs):
    return tuple(F(c) for c in cs)


def test_trim_and_degree():
    assert rp.as_poly([1, 2, 0, 0]) == P(1, 2)
    assert rp.degree(()) == -1
    assert rp.degree(P(0, 0, 1)) == 2
    assert rp.is_monic(P(3, 1))
    assert not rp.is_monic(P(1, 3))
    assert not rp.is_monic(())


def test_arithmetic():
    f, g = P(1, 2), P(0, 1, 1)
    assert rp.poly_add(f, g) == P(1, 3, 1)
    assert rp.poly_sub(f, f) == ()
    assert rp.poly_mul(f, g) == P(0, 1, 3, 2)
    assert rp.poly_scale(f, F(1, 2)) == P(F(1, 2), 1)
    assert rp.poly_pow(P(0, 1), 4) == P(0, 0, 0, 0, 1)
    assert rp.poly_eval(P(1, 0, 1), F(2, 3)) == F(13, 9)


def test_compose():
    f = P(0, 0, 1)  # x^2
    g = P(1, 1)  # x + 1
    assert rp.poly_compose(f, g) == P(1, 2, 1)
    assert rp.poly_compose(g, f) == P(1, 0, 1)
    assert rp.poly_compose(f, ()) == ()


def test_divmod():
    f = P(1, 0, 1, 1)  # x^3 + x^2 + 1
    g = P(1, 1)
    q, r = rp.poly_divmod(f, g)
    assert rp.poly_add(rp.poly_mul(q, g), r) == f
    assert rp.degree(r) < rp.degree(g)
    with pytest.raises(ZeroDivisionError):
        rp.poly_divmod(f, ())


def test_shift():
    f = P(0, 0, 1)
    assert rp.poly_shift(f, F(1)) == P(1, 2, 1)  # (x+1)^2
    assert rp.poly_shift(rp.poly_shift(f, F(3, 2)), F(-3, 2)) == f


def test_string_roundtrip():
    f = P(F(1, 3), -2, 1)
    assert rp.to_strings(f) == ["1/3", "-2/1", "1/1"]
    assert rp.as_poly(F(s) for s in rp.to_strings(f)) == f


def test_format_poly():
    assert rp.format_poly(P(0, 5, 0, -5, 0, 1)) == "x^5 - 5*x^3 + 5*x"
    assert rp.format_poly(()) == "0"
    assert rp.format_poly(P(F(1, 2))) == "1/2"
    assert rp.format_poly(P(-1, 1)) == "x - 1"
