"""The record types: NamedTuples, and ConvexPolygon with __slots__.

Each record pickles to an equal object with an equal hash (the --jobs path
hands rows and polygons back that way), refuses assignment, and keeps the
checks, messages and reprs it had as a frozen dataclass.  A pickled polygon
carries its integer form, so unpickling it validates nothing again.
"""

import pickle
from fractions import Fraction as F

import pytest

from npscan import polygons
from npscan.cyclotomic import CycInt
from npscan.dickson import (
    DicksonSpec,
    compose,
    decompose,
    dickson,
    find_dickson_factor,
    is_admissible,
    recognize_dickson,
)
from npscan.errors import MissingOrigin
from npscan.lfunction import Character, LPolynomial, l_polynomial, reduce_mod_p
from npscan.polygons import ConvexPolygon, hodge_polygon, lower_hull
from npscan.scan import ScanOptions, _ScanPolynomial, run_scan

X3 = (F(0), F(0), F(0), F(1))
D51 = dickson(5, 1)


def _records():
    rows, summary = run_scan(D51, ScanOptions(p_max=20, timing=False))
    return {
        "AdmissibleTriple": is_admissible(7, 1, 5),
        "CompositionChain": decompose(compose((F(1), F(0), F(1)), X3)),
        "DicksonForm": recognize_dickson(D51),
        "DicksonFactorisation": find_dickson_factor(D51),
        "DicksonSpec": DicksonSpec(5, F(1)),
        "ScanOptions": ScanOptions(p_max=50, hint=DicksonSpec(5, F(-1, 2))),
        "ScanRecord": rows[-1],
        "PolygonColumns": rows[-1]._columns,
        "ScanSummary": summary,
        "_ScanPolynomial": _ScanPolynomial.of(D51),
        "Character": Character(7, 3),
        "LPolynomial": l_polynomial(reduce_mod_p(X3, 7), Character(7, 1)),
        "ConvexPolygon": lower_hull([(0, 0), (1, F(1, 3)), (F(5, 2), 2), (3, 3)]),
    }


RECORDS = _records()


def _fields(obj):
    return getattr(obj, "_fields", ("vertices", "_den", "_pts", "_hash"))


@pytest.mark.parametrize("name", RECORDS)
def test_record_pickles_to_an_equal_object(name):
    obj = RECORDS[name]
    assert type(obj).__name__ == name
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is type(obj)
    assert back == obj and hash(back) == hash(obj)
    assert repr(back) == repr(obj)


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_assignment(name):
    obj = RECORDS[name]
    for field in _fields(obj):
        value = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is value
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize(
    "make, exc, message",
    [
        (lambda: DicksonSpec(1, F(1)), ValueError, "n must be > 1"),
        (lambda: DicksonSpec(n=0, a=F(2)), ValueError, "n must be > 1"),
        (lambda: Character(5, 0), ValueError, "character index must be in 1..4, got 0"),
        (lambda: Character(p=5, c=5), ValueError, "character index must be in 1..4, got 5"),
        (lambda: Character(5, 1)._replace(c=0), ValueError,
         "character index must be in 1..4, got 0"),
        (lambda: DicksonSpec(5, F(1))._replace(n=1), ValueError, "n must be > 1"),
        (lambda: LPolynomial(5, 1, 2, ()), ValueError, "constant coefficient must be 1"),
        (lambda: LPolynomial(5, 1, 2, (CycInt.from_int(5, 2),)), ValueError,
         "constant coefficient must be 1"),
        (lambda: LPolynomial(5, 1, 4, (CycInt.one(5), CycInt.zero(5))), ValueError,
         "coeffs must run to a_degree or to a_(degree // 2)"),
        (lambda: RECORDS["LPolynomial"]._replace(degree=7), ValueError,
         "coeffs must run to a_degree or to a_(degree // 2)"),
        (lambda: ConvexPolygon(()), ValueError, "a polygon needs at least one vertex"),
        (lambda: ConvexPolygon(((1, 0), (2, 1))), MissingOrigin,
         "first vertex is (Fraction(1, 1), Fraction(0, 1)), not (0, 0)"),
        (lambda: ConvexPolygon(((0, 0), (2, 1), (2, 3))), ValueError,
         "vertex x-coordinates must strictly increase"),
        (lambda: ConvexPolygon(vertices=((0, 0), (1, 1), (2, 2))), ValueError,
         "slopes must strictly increase (merge collinear points)"),
    ],
)
def test_validation_keeps_its_errors(make, exc, message):
    with pytest.raises(exc) as got:
        make()
    assert type(got.value) is exc and str(got.value) == message


def test_checked_records_accept_what_they_accepted():
    assert DicksonSpec(n=2, a=0) == (2, 0)
    assert Character(p=2, c=1).c == 1
    half = LPolynomial(5, 1, 4, (CycInt.one(5), CycInt.zero(5), CycInt.zero(5)))
    assert len(half.coeffs) == 3


def test_reprs_are_the_dataclass_reprs():
    assert repr(hodge_polygon(3)) == (
        "ConvexPolygon(vertices=((Fraction(0, 1), Fraction(0, 1)),"
        " (Fraction(1, 1), Fraction(1, 3)), (Fraction(2, 1), Fraction(1, 1))))"
    )
    assert repr(ConvexPolygon([(0, 0), (F(3, 2), F(1, 3))])) == (
        "ConvexPolygon(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(3, 2), Fraction(1, 3))))"
    )
    assert repr(DicksonSpec(5, F(1))) == "DicksonSpec(n=5, a=Fraction(1, 1))"
    assert repr(Character(7, 3)) == "Character(p=7, c=3)"
    assert repr(ScanOptions()) == (
        "ScanOptions(p_max=100, char=1, budget=None, jobs=1, hint=None,"
        " auto_hint=True, cache_path=None, timing=True)"
    )
    assert repr(RECORDS["ScanRecord"]) == (
        "ScanRecord(p=19, c=1, d=5, polygon=ConvexPolygon(vertices=((Fraction(0, 1),"
        " Fraction(0, 1)), (Fraction(1, 1), Fraction(2, 9)), (Fraction(2, 1), Fraction(2, 3)),"
        " (Fraction(3, 1), Fraction(11, 9)), (Fraction(4, 1), Fraction(2, 1)))),"
        " admissible=False, ms=None, error=None)"
    )


def test_unpickling_a_polygon_validates_nothing(monkeypatch):
    poly, row = RECORDS["ConvexPolygon"], RECORDS["ScanRecord"]
    blobs = pickle.dumps(poly), pickle.dumps(row)

    def refuse(pts):
        raise AssertionError("unpickling validated a polygon again")

    monkeypatch.setattr(polygons, "_integer_form", refuse)
    back, back_row = map(pickle.loads, blobs)
    assert back == poly and hash(back) == hash(poly)
    assert back._pts == poly._pts and back._den == poly._den
    assert back_row == row and back_row.polygon == row.polygon
    with pytest.raises(AssertionError):  # building one still does
        ConvexPolygon(poly.vertices)
