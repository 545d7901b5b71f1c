"""Dense univariate polynomials over Q as tuples of Fractions.

Coefficients ascend: (c0, c1, ...) means c0 + c1 x + ....  The zero
polynomial is the empty tuple and has degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BadPlace

QPoly = tuple[Fraction, ...]

X: QPoly = (Fraction(0), Fraction(1))
ONE: QPoly = (Fraction(1),)


def as_poly(coeffs: Iterable) -> QPoly:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: QPoly) -> int:
    return len(f) - 1


def is_monic(f: QPoly) -> bool:
    return bool(f) and f[-1] == 1


def constant(c) -> QPoly:
    return as_poly([c])


def poly_add(f: QPoly, g: QPoly) -> QPoly:
    n = max(len(f), len(g))
    return as_poly(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def poly_neg(f: QPoly) -> QPoly:
    return tuple(-c for c in f)


def poly_sub(f: QPoly, g: QPoly) -> QPoly:
    return poly_add(f, poly_neg(g))


def poly_scale(f: QPoly, c) -> QPoly:
    return as_poly(ci * Fraction(c) for ci in f)


def poly_mul(f: QPoly, g: QPoly) -> QPoly:
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return as_poly(out)


def poly_pow(f: QPoly, k: int) -> QPoly:
    if k < 0:
        raise ValueError("negative power")
    result: QPoly = ONE
    for _ in range(k):
        result = poly_mul(result, f)
    return result


def poly_compose(g: QPoly, h: QPoly) -> QPoly:
    """g(h(x)) by Horner on the coefficients of g."""
    acc: QPoly = ()
    for c in reversed(g):
        acc = poly_add(poly_mul(acc, h), constant(c))
    return acc


def poly_divmod(f: QPoly, g: QPoly) -> tuple[QPoly, QPoly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dq = len(f) - len(g)
    quo = [Fraction(0)] * (dq + 1 if dq >= 0 else 0)
    lead = g[-1]
    for k in range(dq, -1, -1):
        c = rem[k + len(g) - 1] / lead
        quo[k] = c
        if c:
            for i, gc in enumerate(g):
                rem[k + i] -= c * gc
    return as_poly(quo), as_poly(rem)


def poly_eval(f: QPoly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def mod_p(c: Fraction, p: int) -> int:
    """The image of c in F_p, as an int in 0..p-1; BadPlace if p divides its denominator."""
    if c.denominator % p == 0:
        raise BadPlace(p, "nonintegral", f"{c} is not {p}-integral")
    return c.numerator * pow(c.denominator, -1, p) % p


def poly_shift(f: QPoly, c) -> QPoly:
    """f(x + c)."""
    return poly_compose(f, (Fraction(c), Fraction(1)))


def is_shifted_monomial(f: QPoly) -> bool:
    """f = (x + b)^d + c for some b, c in Q, with f monic of degree d >= 1.

    Only b = f_(d-1) / d can work, and then f(x - b) = x^d + c."""
    d = degree(f)
    return d >= 1 and is_monic(f) and not any(poly_shift(f, -f[d - 1] / d)[1:d])


def to_strings(f: Sequence[Fraction]) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in f]


def format_poly(f: QPoly) -> str:
    if not f:
        return "0"
    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c) if c > 0 else f"- {-c}" if parts else str(c)
        else:
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            xpow = "x" if k == 1 else f"x^{k}"
            term = f"{coef}{xpow}"
            if c < 0:
                term = f"- {term}" if parts else f"-{term}"
        if parts and c > 0:
            parts.append(f"+ {term}")
        else:
            parts.append(term)
    return " ".join(parts)
