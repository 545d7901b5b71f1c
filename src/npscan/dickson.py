"""Dickson polynomials, permutation tests, functional decomposition over Q,
and the classification of global permutation behavior.

D_n(x, a) is defined by D_0 = 2, D_1 = x, D_k = x D_{k-1} - a D_{k-2}; it
satisfies D_n(x + a/x, a) = x^n + (a/x)^n, D_n(x, 0) = x^n, the composition
law D_{mn}(x, a) = D_m(D_n(x, a), a^n), and the scaling law
D_n(cx, c^2 a) = c^n D_n(x, a).  Over F_q it permutes the field iff
gcd(n, q - 1) = 1 (for a = 0) or gcd(n, q^2 - 1) = 1 (for a != 0).

A triple (p, a, n) is admissible when a is p-integral, p does not divide
6n, and D_n(x, a mod p) permutes F_p.  For n > 1, admissible primes exist
in infinite supply exactly when n is odd (a = 0) or gcd(n, 6) = 1
(a != 0); that is the global permutation polynomial (GPP) criterion that
drives the oscillation scans.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import kernels
from .errors import InvariantViolation, NotPrime
from .fields import (
    FieldElement,
    FieldPolynomial,
    check_enum_budget,
    is_prime,
)
from .ratpoly import (
    QPoly,
    X,
    as_poly,
    constant,
    degree,
    is_monic,
    poly_add,
    poly_compose,
    poly_divmod,
    poly_pow,
    poly_shift,
    poly_sub,
)


def compose(g: QPoly, h: QPoly) -> QPoly:
    """g(h(x)); degrees multiply when both are nonconstant."""
    return poly_compose(as_poly(g), as_poly(h))


def _dickson_coeffs(n: int, a, one) -> list:
    """D_n(x, a)'s coefficients, ascending, by the three-term recurrence in
    the ring of a, whose one is given; zero and two are made from it."""
    if n < 0:
        raise ValueError("n must be >= 0")
    zero = one - one
    prev, cur = [one + one], [zero, one]  # D_0, D_1
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [zero] + cur  # x * D_k
        for i, c in enumerate(prev):
            nxt[i] -= c * a
        prev, cur = cur, nxt
    return cur


def dickson(n: int, a) -> QPoly:
    """D_n(x, a) over Q via the three-term recurrence."""
    return as_poly(_dickson_coeffs(n, Fraction(a), Fraction(1)))


def dickson_over_field(n: int, a: FieldElement) -> FieldPolynomial:
    """D_n(x, a) with a in F_q, as a polynomial over F_q."""
    return FieldPolynomial(a.field, _dickson_coeffs(n, a, a.field.one()))


def is_permutation_bruteforce(gbar: FieldPolynomial, budget: int | None = None) -> bool:
    """Exhaustively test whether gbar permutes its field."""
    check_enum_budget(gbar.field.q, budget)
    return kernels.distinct_value_count(gbar) == gbar.field.q


def dickson_perm_criterion(n: int, a: FieldElement) -> bool:
    """D_n(x, a) permutes F_q iff gcd(n, q-1) = 1 (a = 0) or gcd(n, q^2-1) = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _dickson_permutes(n, a.field.q, a.is_zero())


def _dickson_permutes(n: int, q: int, a_is_zero: bool) -> bool:
    """The gcd rule of dickson_perm_criterion, which reads a only through
    whether it is zero: no field needs building."""
    return math.gcd(n, q - 1 if a_is_zero else q * q - 1) == 1


class AdmissibleTriple(NamedTuple):
    """Verdict for (p, a, n): each gate separately, and the conjunction."""

    p: int
    a: Fraction
    n: int
    p_integral: bool
    p_coprime_6n: bool
    dickson_permutes: bool

    @property
    def admissible(self) -> bool:
        return self.p_integral and self.p_coprime_6n and self.dickson_permutes


def _admissibility_gates(p: int, a: Fraction, n: int) -> tuple[bool, bool, bool]:
    """(p_integral, p_coprime_6n, dickson_permutes) for a prime p and n > 1,
    which the caller vouches for: this runs no primality test."""
    p_integral = a.denominator % p != 0
    # a mod p is zero iff p divides the numerator
    permutes = p_integral and _dickson_permutes(n, p, a.numerator % p == 0)
    return p_integral, (6 * n) % p != 0, permutes


def is_admissible(p: int, a, n: int) -> AdmissibleTriple:
    """Check the admissibility gates for the triple (p, a, n), n > 1."""
    if n <= 1:
        raise ValueError("n must be > 1")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    a = Fraction(a)
    return AdmissibleTriple(p, a, n, *_admissibility_gates(p, a, n))


def gpp_over_q(n: int, a) -> bool:
    """Is D_n(x, a) a permutation of F_p for infinitely many primes p?

    Criterion: n odd when a = 0, gcd(n, 6) = 1 when a != 0 (n = 1 is always
    true).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return n % 2 == 1 if Fraction(a) == 0 else math.gcd(n, 6) == 1


# ---------------------------------------------------------------------------
# functional decomposition over Q


class CompositionChain(NamedTuple):
    """Indecomposable monic factors whose left-to-right composition is f.

    Every factor after the first has zero constant term (right factors are
    normalized that way), so recomposition is exact with no side records.
    """

    factors: tuple[QPoly, ...]

    def recompose(self) -> QPoly:
        out: QPoly = X
        for fac in self.factors:
            out = poly_compose(out, fac)
        return out

    def markers(self) -> tuple[str, ...]:
        """"linear", "dickson", or "plain" per factor."""
        out = []
        for f in self.factors:
            if degree(f) == 1:
                out.append("linear")
            elif recognize_dickson(f) is not None:
                out.append("dickson")
            else:
                out.append("plain")
        return tuple(out)


def _right_factor(f: QPoly, s: int) -> tuple[QPoly, QPoly] | None:
    """Split f = g o h with h monic of degree s and h(0) = 0, if possible.

    The top s coefficients of f see only h^r (r = d/s), and each unknown
    coefficient of h enters linearly there with multiplier r, so h is
    determined top-down; the base-h expansion of f then certifies or
    refutes the split.
    """
    d = degree(f)
    r = d // s
    h = list(poly_pow(X, s))
    for j in range(1, s):
        hr = poly_pow(tuple(h), r)
        delta = f[d - j] - hr[d - j]
        if delta:
            h[s - j] += delta / r
    hq = as_poly(h)
    digits = []
    rem = f
    for _ in range(r + 1):
        rem, digit = poly_divmod(rem, hq)
        if degree(digit) > 0:
            return None
        digits.append(digit[0] if digit else Fraction(0))
    if rem:
        return None
    g = as_poly(digits)
    if poly_compose(g, hq) != f:  # cheap final certificate
        return None
    return g, hq


def _decompose_rec(f: QPoly) -> list[QPoly]:
    d = degree(f)
    for s in range(2, d):
        if d % s:
            continue
        split = _right_factor(f, s)
        if split is not None:
            g, h = split
            return _decompose_rec(g) + [h]
    return [f]


def decompose(f) -> CompositionChain:
    """Complete decomposition of monic f (deg >= 2) into indecomposables.

    The right factor found at each step has minimal degree, which forces
    it to be indecomposable; recursion on the left factor does the rest.
    """
    fq = as_poly(f)
    if degree(fq) < 2 or not is_monic(fq):
        raise ValueError("f must be monic of degree >= 2")
    chain = CompositionChain(tuple(_decompose_rec(fq)))
    if chain.recompose() != fq:
        raise InvariantViolation("decomposition does not recompose to f")
    return chain


class DicksonForm(NamedTuple):
    """u(x) = D_n(x + shift, a) + constant."""

    n: int
    a: Fraction
    shift: Fraction
    constant: Fraction


def recognize_dickson(u) -> DicksonForm | None:
    """Match monic u (deg >= 2) against D_n(x + nu, a) + beta.

    Depressing u by nu = coeff_{n-1}(u)/n kills the x^(n-1) term; the
    x^(n-2) coefficient of D_n(x, a) is -n a, which fixes a; the match
    succeeds iff the residual is constant.
    """
    uq = as_poly(u)
    n = degree(uq)
    if n < 2 or not is_monic(uq):
        raise ValueError("u must be monic of degree >= 2")
    nu = uq[n - 1] / n
    v = poly_shift(uq, -nu)
    a = -v[n - 2] / n
    residual = poly_sub(v, dickson(n, a))
    if degree(residual) > 0:
        return None
    beta = residual[0] if residual else Fraction(0)
    return DicksonForm(n, a, nu, beta)


class DicksonSpec(NamedTuple("_DicksonSpec", [("n", int), ("a", Fraction)])):
    """A Dickson factor hint (n, a) for prime scans; n > 1, as in
    is_admissible, so a scan checks its hint once, when it is made."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, n: int, a: Fraction):
        if n <= 1:
            raise ValueError("n must be > 1")
        return super().__new__(cls, n, a)


class DicksonFactorisation(NamedTuple):
    """f = outer o D_n(x, a) o inner, exactly, extracted from a chain."""

    form: DicksonForm
    outer: QPoly
    inner: QPoly

    @property
    def spec(self) -> DicksonSpec:
        return DicksonSpec(self.form.n, self.form.a)


def find_dickson_factor(f, require_gpp: bool = False) -> DicksonFactorisation | None:
    """First chain factor of degree > 1 that is Dickson-equivalent.

    With require_gpp=True the factor must also pass the GPP criterion,
    i.e. permute F_p for infinitely many p.
    """
    fq = as_poly(f)
    if degree(fq) < 2:  # no composition factor of degree > 1
        return None
    chain = decompose(fq)
    for i, u in enumerate(chain.factors):
        if degree(u) < 2:
            continue
        form = recognize_dickson(u)
        if form is None:
            continue
        if require_gpp and not gpp_over_q(form.n, form.a):
            continue
        left = CompositionChain(chain.factors[:i]).recompose()
        right = CompositionChain(chain.factors[i + 1 :]).recompose()
        outer = poly_shift(left, form.constant)
        inner = poly_add(right, constant(form.shift))
        recomposed = poly_compose(poly_compose(outer, dickson(form.n, form.a)), inner)
        if recomposed != fq:
            raise InvariantViolation("Dickson factorisation failed to recompose")
        return DicksonFactorisation(form, outer, inner)
    return None
