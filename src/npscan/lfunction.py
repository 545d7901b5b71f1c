"""Exponential sums over finite fields and their L-polynomials.

For fbar over F_q (q = p^h) and a nontrivial additive character chi_c of
F_p, the sums S_m = sum over x in F_{q^m} of chi_c(Tr(fbar(x))) generate
L(fbar, chi, t) = exp(sum_m S_m t^m / m), which is a polynomial of degree
d - 1 over Z[zeta_p] whenever gcd(d, p) = 1.  Its coefficients come out of
the Newton-identity recurrence a_k = (1/k) sum_{j<=k} S_j a_{k-j}, with
every division exact.

The q-adic Newton polygon is the lower hull of (k, v_pi(a_k) / (h(p-1))).
It does not depend on the choice of c, and it equals the Hodge polygon
whenever p = 1 mod d.

The polygon needs only half of L.  L is pure of weight 1 (Weil; this is
where gcd(d, p) = 1 enters), so its reciprocal roots w satisfy
conj(w) = q / w, and the functional equation reads
a_(d-1-k) = a_(d-1) conj(a_k) / q^k with a_(d-1) conj(a_(d-1)) = q^(d-1).
Complex conjugation is zeta -> zeta^-1 and preserves v_pi, hence
v(a_(d-1)) = (d-1) h(p-1) / 2 and
v(a_(d-1-k)) = v(a_k) + (d-1) h(p-1) / 2 - k h(p-1).
l_polynomial(..., half=True) therefore stops the recurrence at
K = (d-1) // 2 and enumerates no field larger than F_(q^K), and
newton_polygon fills in the other half; np_at_prime takes this path.
Without half=True, l_polynomial is the full, exact path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernels, ratpoly
from .cyclotomic import CycInt, exact_div_int, pi_valuation
from .errors import (
    BadPlace,
    CharacteristicMismatch,
    DegreeCharClash,
    InternalDivisibility,
    InvariantViolation,
    NotDivisible,
)
from .fields import FieldPolynomial, build_field, check_enum_budget, embed
from .polygons import ConvexPolygon, lower_hull


@dataclass(frozen=True)
class Character:
    """The additive character a -> zeta_p^(c a) of F_p; c = 1..p-1."""

    p: int
    c: int

    def __post_init__(self):
        if not 1 <= self.c <= self.p - 1:
            raise ValueError(f"character index must be in 1..{self.p - 1}, got {self.c}")


@dataclass(frozen=True)
class LPolynomial:
    """L(fbar, chi, t) = sum a_k t^k of the given degree, a_k in Z[zeta_p].

    coeffs holds a_0 = 1 .. a_degree, or only a_0 .. a_(degree // 2) for
    half of L (l_polynomial(..., half=True)).
    """

    p: int
    h: int
    degree: int
    coeffs: tuple[CycInt, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != CycInt.one(self.p):
            raise ValueError("constant coefficient must be 1")
        if len(self.coeffs) not in (self.degree + 1, self.degree // 2 + 1):
            raise ValueError("coeffs must run to a_degree or to a_(degree // 2)")

    @property
    def q(self) -> int:
        return self.p**self.h


# Different (fbar, m) can push to one polynomial: base change asks for fext
# over F_{q^n} at m, the base L for fbar at n m, and both push F_p
# coefficients into the same canonical field.  So the histogram is cached
# per pushed polynomial, whose hash is cheap: fields hash by identity.  A
# crosscheck at one prime asks again within a few dozen requests (its misses
# are the same at 16 entries as at 512), and a scan never asks twice.
@functools.lru_cache(maxsize=32)
def _pushed_histogram(fext: FieldPolynomial) -> tuple[int, ...]:
    hist = kernels.trace_histogram(fext)
    if sum(hist) != fext.field.q:
        raise InvariantViolation("trace histogram does not sum to q^m")
    return tuple(hist)


def trace_counts(fbar: FieldPolynomial, m: int, budget: int | None = None) -> tuple[int, ...]:
    """t_a = #{x in F_{q^m} : Tr(fbar(x)) = a}, a = 0..p-1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    base = fbar.field
    check_enum_budget(base.q**m, budget)
    ext = build_field(base.p, base.e * m)
    return _pushed_histogram(embed(base, ext).map_poly(fbar))


def exp_sum(fbar: FieldPolynomial, m: int, chi: Character, budget: int | None = None) -> CycInt:
    """S_m(fbar, chi) = sum over x in F_{q^m} of chi(Tr(fbar(x)))."""
    p = fbar.field.p
    if chi.p != p:
        raise CharacteristicMismatch(f"character mod {chi.p} vs field of characteristic {p}")
    hist = trace_counts(fbar, m, budget)
    counts = np.zeros(p, dtype=np.int64)
    counts[np.arange(p) * chi.c % p] = hist  # a -> c a permutes F_p
    return CycInt.from_root_counts(p, counts)


def _newton_sum(sums: Sequence[CycInt], coeffs: Sequence[CycInt]) -> CycInt:
    """sum_{j=1..k} S_j a_(k-j) for k = len(coeffs): k times the next a_k.

    a_0 = 1, so the sum starts from its j = k term S_k and multiplies only
    for j < k: none for a_1, one for a_2."""
    k = len(coeffs)
    acc = sums[k - 1]
    for j in range(1, k):
        acc = acc + sums[j - 1] * coeffs[k - j]
    return acc


def l_polynomial(
    fbar: FieldPolynomial,
    chi: Character | None = None,
    budget: int | None = None,
    verify: bool = False,
    half: bool = False,
) -> LPolynomial:
    """The degree-(d-1) polynomial L(fbar, chi, t) over Z[zeta_p].

    Requires gcd(d, p) = 1; chi defaults to chi_1.  With half=True the
    recurrence stops at a_K, K = (d-1) // 2, so only S_1..S_K are
    enumerated.  With verify=True (full L only), S_d is also computed and
    the recurrence is run one step further, which must give a_d = 0.

    The full L is memoized per (fbar, chi, verify): crosscheck asks for the
    same L in several checks.  The budget is checked before the lookup and
    raises what a cold call raises, so a cached L is never returned under a
    budget that refuses it.
    """
    field = fbar.field
    p, d = field.p, fbar.degree
    if d < 1:
        raise ValueError("fbar must be nonconstant")
    if math.gcd(d, p) != 1:
        raise DegreeCharClash(f"gcd(d, p) = gcd({d}, {p}) != 1")
    if verify and half:
        raise ValueError("verify needs the full L-polynomial")
    if chi is None:
        chi = Character(p, 1)
    if chi.p != p:
        raise CharacteristicMismatch(f"character mod {chi.p} vs field of characteristic {p}")
    upto = (d - 1) // 2 if half else d - 1
    for m in range(1, upto + 1):
        check_enum_budget(field.q**m, budget)
    if verify:
        check_enum_budget(field.q**d, budget)
    if half:
        return _l_recurrence(fbar, chi, upto, verify)
    return _full_l_polynomial(fbar, chi, verify)


def _l_recurrence(fbar: FieldPolynomial, chi: Character, upto: int, verify: bool) -> LPolynomial:
    """a_0..a_upto from S_1..S_upto.  The caller has checked the budget, so
    the sums run under none."""
    field = fbar.field
    p, d = field.p, fbar.degree
    sums = [exp_sum(fbar, m, chi, math.inf) for m in range(1, upto + 1)]
    coeffs = [CycInt.one(p)]
    for k in range(1, upto + 1):
        try:
            coeffs.append(exact_div_int(_newton_sum(sums, coeffs), k))
        except NotDivisible as exc:
            raise InternalDivisibility(f"coefficient a_{k} is not integral") from exc
    if upto == d - 1 and d > 1 and coeffs[d - 1].is_zero():
        raise InvariantViolation("leading coefficient a_(d-1) vanished")
    if verify:
        sums.append(exp_sum(fbar, d, chi, math.inf))
        if not _newton_sum(sums, coeffs).is_zero():
            raise InvariantViolation("S_d is inconsistent with the L-coefficients")
    return LPolynomial(p, field.e, d - 1, tuple(coeffs))


# Each entry holds d (p - 1) integers.  A scan computes each half L once,
# so only the full L, which crosscheck reuses, is kept.
@functools.lru_cache(maxsize=64)
def _full_l_polynomial(fbar: FieldPolynomial, chi: Character, verify: bool) -> LPolynomial:
    return _l_recurrence(fbar, chi, fbar.degree - 1, verify)


def newton_polygon(lpoly: LPolynomial) -> ConvexPolygon:
    """q-adic Newton polygon: lower hull of (k, v_pi(a_k) / (h(p-1))).

    For half of L the valuations of a_(K+1)..a_(d-1) come from the
    functional equation (module docstring), which also fixes the endpoint
    (d-1, (d-1)/2).  The computed a_0..a_K must lie on or above the Hodge
    polygon, k(k+1)/(2d) at k (Adolphson-Sperber); that is the check left
    on them once the other half and the endpoint hold by construction.
    """
    n = lpoly.degree
    unit = lpoly.h * (lpoly.p - 1)  # v_pi(q)
    vals = [0] + [pi_valuation(a) for a in lpoly.coeffs[1:]]  # a_0 = 1, checked by LPolynomial
    if len(vals) <= n:
        for k, v in enumerate(vals):
            if 2 * (n + 1) * v < k * (k + 1) * unit:
                raise InvariantViolation(f"v(a_{k}) lies below the Hodge polygon")
        top = n * unit // 2  # v_pi(a_(d-1)); n * unit is even since p = 2 forces d odd
        vals += [vals[n - k] + top - (n - k) * unit for k in range(len(vals), n + 1)]
    return lower_hull(
        (Fraction(k), Fraction(int(v), unit)) for k, v in enumerate(vals) if v != math.inf
    )


def reduce_mod_p(f: Sequence[Fraction], p: int) -> FieldPolynomial:
    """Reduction of f in Q[x] to F_p[x]; BadPlace if p divides a denominator."""
    return build_field(p, 1).poly([ratpoly.mod_p(c, p) for c in ratpoly.as_poly(f)])


def np_at_prime(
    f: Sequence, p: int, chi_index: int = 1, budget: int | None = None
) -> ConvexPolygon:
    """Newton polygon NP_p(f) of a monic f in Q[x] at a good place p, from
    half of L: the budget bounds p^((d-1) // 2)."""
    fq = ratpoly.as_poly(f)
    d = ratpoly.degree(fq)
    if d < 1 or not ratpoly.is_monic(fq):
        raise ValueError("f must be monic of degree >= 1")
    if math.gcd(d, p) != 1:
        raise BadPlace(p, "degree", f"p = {p} divides d = {d}")
    fbar = reduce_mod_p(fq, p)
    return newton_polygon(l_polynomial(fbar, Character(p, chi_index), budget, half=True))


def np_base_change_check(
    fbar: FieldPolynomial, n: int, chi: Character | None = None, budget: int | None = None
) -> bool:
    """NP over F_q equals NP over F_{q^n} (polygons compared vertex-wise)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return True
    base = fbar.field
    ext = build_field(base.p, base.e * n)
    fext = embed(base, ext).map_poly(fbar)
    np_base = newton_polygon(l_polynomial(fbar, chi, budget))
    np_ext = newton_polygon(l_polynomial(fext, chi, budget))
    return np_base == np_ext
