"""Lower-convex polygons with exact rational vertices.

A polygon here is the graph of a piecewise-linear convex function anchored
at the origin: vertices have strictly increasing x, strictly increasing
slopes, and the first vertex is (0, 0).  Vertices are Fraction pairs, and
each polygon keeps one integer form, made when it is built: the common
denominator D of its coordinates and the points (x*D, y*D).  Hulls,
convexity checks, evaluation, gaps and lies_above cross-multiply on that
form, with no float and no Fraction arithmetic; a Fraction is built only
for a value handed back (evaluate, vertical_gap, slopes, slope_multiset).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainMismatch, MissingOrigin

Vertex = tuple[Fraction, Fraction]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integer_form(pts: Sequence[Vertex]) -> tuple[int, list[tuple[int, int]]]:
    """D, the least common denominator of the points, and the points times D."""
    den = math.lcm(*(c.denominator for pt in pts for c in pt))
    return den, [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
                 for x, y in pts]


class ConvexPolygon:
    """Vertices of a lower-convex chain starting at (0, 0).  vertices is the
    only field; _den and _pts, the integer form, derive from it.  The form
    is canonical (equal vertices, equal form), so eq and hash read it
    instead of the Fraction vertices: polygons key the scan's caches.
    Instances are immutable, and a pickle carries the integer form, so
    unpickling (--jobs workers hand rows back that way) validates nothing
    again."""

    __slots__ = ("vertices", "_den", "_pts", "_hash")

    def __init__(self, vertices: Iterable[tuple]):
        vs = tuple((_frac(x), _frac(y)) for x, y in vertices)
        if not vs:
            raise ValueError("a polygon needs at least one vertex")
        den, pts = _integer_form(vs)
        if pts[0] != (0, 0):
            raise MissingOrigin(f"first vertex is {vs[0]}, not (0, 0)")
        steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        if any(dx <= 0 for dx, _ in steps):
            raise ValueError("vertex x-coordinates must strictly increase")
        if any(dy1 * dx0 <= dy0 * dx1 for (dx0, dy0), (dx1, dy1) in zip(steps, steps[1:])):
            raise ValueError("slopes must strictly increase (merge collinear points)")
        self.__setstate__((vs, den, pts, hash((den, *pts))))

    def __getstate__(self):
        return self.vertices, self._den, self._pts, self._hash

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"ConvexPolygon(vertices={self.vertices!r})"

    def __eq__(self, other):
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self._den == other._den and self._pts == other._pts

    def __hash__(self):
        return self._hash

    def slopes(self) -> tuple[Fraction, ...]:
        ps = self._pts
        return tuple(Fraction(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(ps, ps[1:]))

    @property
    def width(self) -> Fraction:
        return self.vertices[-1][0]

    @property
    def end(self) -> Vertex:
        return self.vertices[-1]

    def _value(self, n: int, b: int) -> tuple[int, int]:
        """(num, den), den > 0, with value num / (den*D) at x = n / (b*D) in [0, width]."""
        ps = self._pts
        for (x0, y0), (x1, y1) in zip(ps, ps[1:]):
            if n <= x1 * b:
                return y0 * (x1 - x0) * b + (y1 - y0) * (n - x0 * b), (x1 - x0) * b
        return ps[-1][1], 1

    def evaluate(self, x) -> Fraction:
        """Value of the piecewise-linear function at x in [0, width]."""
        x = _frac(x)
        n, b = x.numerator * self._den, x.denominator
        if n < 0 or n > self._pts[-1][0] * b:
            raise DomainMismatch(f"x = {x} outside [0, {self.width}]")
        num, den = self._value(n, b)
        return Fraction(num, den * self._den)

    def slope_multiset(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(slope, horizontal length) per segment, slopes strictly increasing."""
        ps, den = self._pts, self._den
        return tuple(
            (Fraction(y1 - y0, x1 - x0), Fraction(x1 - x0, den))
            for (x0, y0), (x1, y1) in zip(ps, ps[1:])
        )


def lower_hull(points: Iterable[tuple]) -> ConvexPolygon:
    """Lower convex hull of points with distinct x, one of which is (0, 0).

    Collinear vertices are merged, so the result's slopes strictly increase.
    """
    pts = [(_frac(x), _frac(y)) for x, y in points]
    _, ints = _integer_form(pts)
    rows = sorted(zip(ints, pts))
    if any(a[0][0] == b[0][0] for a, b in zip(rows, rows[1:])):
        raise ValueError("points must have distinct x-coordinates")
    if (0, 0) not in ints:
        raise MissingOrigin("input points do not contain (0, 0)")
    hull: list[tuple[tuple[int, int], Vertex]] = []
    for (x, y), pt in rows:
        while len(hull) >= 2:
            ((ax, ay), _), ((bx, by), _) = hull[-2], hull[-1]
            # keep only strict right turns for a lower hull; <= merges collinear
            if (bx - ax) * (y - ay) - (by - ay) * (x - ax) <= 0:
                hull.pop()
            else:
                break
        hull.append(((x, y), pt))
    return ConvexPolygon(tuple(pt for _, pt in hull))


def hodge_polygon(d: int) -> ConvexPolygon:
    """Vertices (k, k(k+1)/(2d)) for k = 0..d-1: slope k/d with length 1 each."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return ConvexPolygon(tuple((Fraction(k), Fraction(k * (k + 1), 2 * d)) for k in range(d)))


def slope_length(poly: ConvexPolygon, lam) -> Fraction:
    """Horizontal length of the segment of slope lam (0 if absent)."""
    lam = _frac(lam)
    for slope, length in poly.slope_multiset():
        if slope == lam:
            return length
    return Fraction(0)


def _differences(p: ConvexPolygon, q: ConvexPolygon):
    """p(x) - q(x) = num / den, den > 0, at each vertex x of either polygon."""
    if p._pts[-1][0] * q._den != q._pts[-1][0] * p._den:
        raise DomainMismatch(f"polygons end at x = {p.width} and x = {q.width}")
    den = math.lcm(p._den, q._den)
    sp, sq = den // p._den, den // q._den
    for x in {*(px * sp for px, _ in p._pts), *(qx * sq for qx, _ in q._pts)}:  # x / den
        (a, b), (c, e) = p._value(x, sp), q._value(x, sq)
        yield a * sp * e - c * sq * b, b * e * den


def vertical_gap(p: ConvexPolygon, q: ConvexPolygon) -> Fraction:
    """max over all vertex x-coordinates of p(x) - q(x) (signed)."""
    by_value = functools.cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1])
    return Fraction(*max(_differences(p, q), key=by_value))


def lies_above(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    """True when p(x) >= q(x) at every vertex of either polygon."""
    return all(n >= 0 for n, _ in _differences(p, q))
