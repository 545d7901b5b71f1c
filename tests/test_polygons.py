"""Lower hulls, Hodge polygons and gaps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from npscan.errors import DomainMismatch, MissingOrigin
from npscan.polygons import (
    ConvexPolygon,
    hodge_polygon,
    lies_above,
    lower_hull,
    slope_length,
    vertical_gap,
)
from npscan.scan import ScanRecord, record_from_json, record_to_json

F = Fraction


def test_lower_hull_basic():
    poly = lower_hull([(0, 0), (1, 2), (2, 1), (3, 5)])
    assert poly.vertices == ((F(0), F(0)), (F(2), F(1)), (F(3), F(5)))


def test_lower_hull_merges_collinear():
    poly = lower_hull([(0, 0), (1, F(1, 2)), (2, 1)])
    assert poly.vertices == ((F(0), F(0)), (F(2), F(1)))


def test_lower_hull_requires_origin():
    with pytest.raises(MissingOrigin):
        lower_hull([(1, 0), (2, 1)])
    with pytest.raises(ValueError):
        lower_hull([(0, 0), (0, 1), (1, 1)])  # duplicate x
    with pytest.raises(MissingOrigin):
        lower_hull([])


def test_polygon_validation():
    with pytest.raises(MissingOrigin):
        ConvexPolygon(((F(1), F(0)),))
    with pytest.raises(ValueError):
        # slopes must strictly increase
        ConvexPolygon(((F(0), F(0)), (F(1), F(1)), (F(2), F(1))))


def test_hodge_polygon_frozen():
    assert hodge_polygon(1).vertices == ((F(0), F(0)),)
    assert hodge_polygon(3).vertices == ((F(0), F(0)), (F(1), F(1, 3)), (F(2), F(1)))
    hp5 = hodge_polygon(5)
    assert hp5.vertices == (
        (F(0), F(0)),
        (F(1), F(1, 5)),
        (F(2), F(3, 5)),
        (F(3), F(6, 5)),
        (F(4), F(2)),
    )
    assert hp5.end == (F(4), F(2))
    # vertex k sits at k(k+1)/(2d)
    for d in range(2, 9):
        for k, (x, y) in enumerate(hodge_polygon(d).vertices):
            assert (x, y) == (F(k), F(k * (k + 1), 2 * d))


def test_slopes_and_multiset():
    poly = lower_hull([(0, 0), (2, 1), (3, 2)])
    assert poly.slopes() == (F(1, 2), F(1))
    assert poly.slope_multiset() == ((F(1, 2), F(2)), (F(1), F(1)))
    assert slope_length(poly, F(1, 2)) == 2
    assert slope_length(poly, F(1, 3)) == 0


def test_evaluate_and_gap():
    np_ = lower_hull([(0, 0), (2, 1)])
    hp = hodge_polygon(3)
    assert np_.evaluate(F(1)) == F(1, 2)
    assert vertical_gap(np_, hp) == F(1, 2) - F(1, 3)
    assert lies_above(np_, hp)
    assert not lies_above(hp, np_)
    assert vertical_gap(hp, hp) == 0
    with pytest.raises(DomainMismatch):
        np_.evaluate(F(5))
    with pytest.raises(DomainMismatch):
        vertical_gap(np_, hodge_polygon(4))


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 12),
            st.fractions(min_value=-4, max_value=8, max_denominator=12),
        ),
        min_size=0,
        max_size=9,
        unique_by=lambda t: t[0],
    )
)
def test_hull_properties(pts):
    points = [(F(0), F(0))] + [(F(x), y) for x, y in pts]
    poly = lower_hull(points)
    # hull is idempotent
    assert lower_hull(poly.vertices) == poly
    # hull lies under every input point
    for x, y in points:
        assert poly.evaluate(x) <= y
    # slopes strictly increase
    slopes = poly.slopes()
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    # slope lengths cover the width
    assert sum(l for _, l in poly.slope_multiset()) == poly.width
    # a record of this polygon round-trips through its JSON row
    rec = ScanRecord(2, 1, int(poly.width) + 1, poly, None, None)
    assert record_from_json(record_to_json(rec)) == rec


# ---------------------------------------------------------------------------
# Fraction reference: the formulas polygons.py used before its integer form,
# kept here as an oracle for it.  A polygon is a tuple of vertices.


def ref_polygon(vs):
    vs = tuple((F(x), F(y)) for x, y in vs)
    if not vs:
        raise ValueError("a polygon needs at least one vertex")
    if vs[0] != (0, 0):
        raise MissingOrigin(f"first vertex is {vs[0]}, not (0, 0)")
    for (x0, _), (x1, _) in zip(vs, vs[1:]):
        if x1 <= x0:
            raise ValueError("vertex x-coordinates must strictly increase")
    slopes = ref_slopes(vs)
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 <= s0:
            raise ValueError("slopes must strictly increase (merge collinear points)")
    return vs


def ref_slopes(vs):
    return tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(vs, vs[1:]))


def ref_slope_multiset(vs):
    return tuple(((y1 - y0) / (x1 - x0), x1 - x0) for (x0, y0), (x1, y1) in zip(vs, vs[1:]))


def ref_evaluate(vs, x):
    x = F(x)
    if x < 0 or x > vs[-1][0]:
        raise DomainMismatch(f"x = {x} outside [0, {vs[-1][0]}]")
    for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return vs[-1][1]


def ref_shared_xs(p, q):
    if p[-1][0] != q[-1][0]:
        raise DomainMismatch(f"polygons end at x = {p[-1][0]} and x = {q[-1][0]}")
    return sorted({x for x, _ in p} | {x for x, _ in q})


def ref_gap(p, q):
    return max(ref_evaluate(p, x) - ref_evaluate(q, x) for x in ref_shared_xs(p, q))


def ref_lies_above(p, q):
    return all(ref_evaluate(p, x) >= ref_evaluate(q, x) for x in ref_shared_xs(p, q))


def ref_hull(points):
    pts = sorted((F(x), F(y)) for x, y in points)
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise ValueError("points must have distinct x-coordinates")
    if (F(0), F(0)) not in pts:
        raise MissingOrigin("input points do not contain (0, 0)")
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return ref_polygon(hull)


def outcome(fn, *args):
    """fn(*args), or the class and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def rationals(lo, hi):
    """Fractions in [lo, hi] with denominators up to 12."""
    return st.integers(1, 12).flatmap(
        lambda den: st.integers(lo * den, hi * den).map(lambda num: F(num, den))
    )


xcoord = rationals(0, 6)
ycoord = rationals(-4, 8)
point_lists = st.lists(st.tuples(xcoord, ycoord), max_size=8)


@settings(max_examples=200, deadline=None)
@given(point_lists, st.booleans())
def test_integer_hull_and_checks_match_fraction_reference(pts, with_origin):
    """Same vertices or same error (MissingOrigin, repeated x, x or slopes
    not increasing) as the Fraction code, for the hull and for raw vertices."""
    if with_origin:
        pts = [(F(0), F(0))] + pts
    assert outcome(lambda v: lower_hull(v).vertices, pts) == outcome(ref_hull, pts)
    by_x = sorted(dict(pts).items())  # increasing x; slopes in any order
    for vs in (pts, by_x, by_x[::-1]):
        assert outcome(lambda v: ConvexPolygon(tuple(v)).vertices, vs) == outcome(ref_polygon, vs)


def hull_to(width, end_y, pts):
    """Lower hull of (0, 0), (width, end_y) and the points strictly between."""
    inner = {x: y for x, y in pts if 0 < x < width}
    return lower_hull([(0, 0), (width, end_y), *inner.items()])


@settings(max_examples=200, deadline=None)
@given(
    rationals(1, 6),
    st.tuples(ycoord, ycoord),
    point_lists,
    point_lists,
    st.booleans(),
    rationals(-1, 7),
)
def test_integer_form_matches_fraction_reference(width, ends, a, b, same_width, x):
    """evaluate, slopes, slope_multiset, vertical_gap and lies_above agree
    with the Fraction formulas, DomainMismatch included."""
    p = hull_to(width, ends[0], a)
    q = hull_to(width if same_width else width + F(1, 12), ends[1], b)
    pv, qv = p.vertices, q.vertices
    # a midpoint makes three collinear vertices: slopes no longer increase
    (x0, y0), (x1, y1) = pv[0], pv[1]
    split = (pv[0], ((x0 + x1) / 2, (y0 + y1) / 2), *pv[1:])
    assert outcome(ConvexPolygon, split) == outcome(ref_polygon, split)
    for poly in (p, q):
        vs = poly.vertices
        assert poly.slopes() == ref_slopes(vs)
        assert poly.slope_multiset() == ref_slope_multiset(vs)
        assert outcome(poly.evaluate, x) == outcome(ref_evaluate, vs, x)
        for vx, vy in vs:
            assert poly.evaluate(vx) == vy
    for s, t, sv, tv in ((p, q, pv, qv), (q, p, qv, pv), (p, p, pv, pv)):
        assert outcome(vertical_gap, s, t) == outcome(ref_gap, sv, tv)
        assert outcome(lies_above, s, t) == outcome(ref_lies_above, sv, tv)
    hp = hodge_polygon(int(width) + 1)
    assert outcome(vertical_gap, p, hp) == outcome(ref_gap, pv, hp.vertices)
    assert outcome(lies_above, hp, p) == outcome(ref_lies_above, hp.vertices, pv)
