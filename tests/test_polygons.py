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
