"""Lower-convex polygons with exact rational vertices.

A polygon here is the graph of a piecewise-linear convex function anchored
at the origin: vertices have strictly increasing x, strictly increasing
slopes, and the first vertex is (0, 0).  Everything is fractions.Fraction;
no floats anywhere, so comparisons like "gap is exactly 1/6" are honest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainMismatch, MissingOrigin

Vertex = tuple[Fraction, Fraction]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ConvexPolygon:
    """Vertices of a lower-convex chain starting at (0, 0)."""

    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        vs = tuple((_frac(x), _frac(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if not vs:
            raise ValueError("a polygon needs at least one vertex")
        if vs[0] != (0, 0):
            raise MissingOrigin(f"first vertex is {vs[0]}, not (0, 0)")
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x1 <= x0:
                raise ValueError("vertex x-coordinates must strictly increase")
        slopes = self.slopes()
        for s0, s1 in zip(slopes, slopes[1:]):
            if s1 <= s0:
                raise ValueError("slopes must strictly increase (merge collinear points)")

    def slopes(self) -> tuple[Fraction, ...]:
        vs = self.vertices
        return tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(vs, vs[1:]))

    @property
    def width(self) -> Fraction:
        return self.vertices[-1][0]

    @property
    def end(self) -> Vertex:
        return self.vertices[-1]

    def evaluate(self, x) -> Fraction:
        """Value of the piecewise-linear function at x in [0, width]."""
        x = _frac(x)
        if x < 0 or x > self.width:
            raise DomainMismatch(f"x = {x} outside [0, {self.width}]")
        vs = self.vertices
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return vs[-1][1]

    def slope_multiset(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(slope, horizontal length) per segment, slopes strictly increasing."""
        vs = self.vertices
        return tuple(
            ((y1 - y0) / (x1 - x0), x1 - x0) for (x0, y0), (x1, y1) in zip(vs, vs[1:])
        )


def lower_hull(points: Iterable[tuple]) -> ConvexPolygon:
    """Lower convex hull of points with distinct x, one of which is (0, 0).

    Collinear vertices are merged, so the result's slopes strictly increase.
    """
    pts = sorted((_frac(x), _frac(y)) for x, y in points)
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise ValueError("points must have distinct x-coordinates")
    if (Fraction(0), Fraction(0)) not in pts:
        raise MissingOrigin("input points do not contain (0, 0)")
    hull: list[Vertex] = []
    for pt in pts:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            # keep only strict right turns for a lower hull; <= merges collinear
            if (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return ConvexPolygon(tuple(hull))


@functools.lru_cache(maxsize=64)  # a scan row asks for it three times
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


def _shared_xs(p: ConvexPolygon, q: ConvexPolygon) -> list[Fraction]:
    if p.width != q.width:
        raise DomainMismatch(f"polygons end at x = {p.width} and x = {q.width}")
    xs = {x for x, _ in p.vertices} | {x for x, _ in q.vertices}
    return sorted(xs)


def vertical_gap(p: ConvexPolygon, q: ConvexPolygon) -> Fraction:
    """max over all vertex x-coordinates of p(x) - q(x) (signed)."""
    return max(p.evaluate(x) - q.evaluate(x) for x in _shared_xs(p, q))


def lies_above(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    """True when p(x) >= q(x) at every vertex of either polygon."""
    return all(p.evaluate(x) >= q.evaluate(x) for x in _shared_xs(p, q))

