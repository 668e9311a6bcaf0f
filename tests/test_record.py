"""The frozen value classes: ``jets.record`` against ``dataclass(frozen=True)``
and on the package's own classes.  ``TestFamily.entries`` (a
``cached_property`` on a record) is covered in test_inference.py."""

import dataclasses

import pytest

from kahlap.catalog import Custom, Flat, Hyperbolic, Product, TypeI
from kahlap.inference import CONSISTENT, Verdict
from kahlap.jets import Jet, record


def _point(decorate):
    @decorate
    class Point:
        x: int
        y: object = None
        z: tuple = ()

    return Point


RECORD, DATACLASS = _point(record), _point(dataclasses.dataclass(frozen=True))


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, 2), {}), ((1,), {"z": (3,)}), ((), {"x": "a", "y": [1]})],
)
def test_record_matches_a_frozen_dataclass(args, kwargs):
    a, b = RECORD(*args, **kwargs), DATACLASS(*args, **kwargs)
    assert repr(a) == repr(b)
    assert (a.x, a.y, a.z) == (b.x, b.y, b.z)
    assert a == RECORD(*args, **kwargs) and b == DATACLASS(*args, **kwargs)
    if not isinstance(a.y, list):
        assert hash(a) == hash(b)
    assert RECORD.__match_args__ == DATACLASS.__match_args__ == ("x", "y", "z")


def test_equality_and_hash_are_by_value():
    assert Hyperbolic(2) == Hyperbolic(2) and Hyperbolic(2) != Hyperbolic(3)
    assert hash(Hyperbolic(2)) == hash(Hyperbolic(2))
    assert len({TypeI(2, 2), TypeI(2, 2), TypeI(2, 3)}) == 2
    assert Product(Flat(1), Hyperbolic(1)) == Product(Flat(1), Hyperbolic(1))
    assert Flat(1) != Hyperbolic(1)
    assert Flat(1).__eq__(Hyperbolic(1)) is NotImplemented


def test_custom_jet_is_not_compared():
    a = Custom(Jet.abs_square_sum(1, 4), "mine")
    b = Custom(Jet.abs_square_sum(1, 6), name="mine")
    assert a == b and hash(a) == hash(b)
    assert a != Custom(a.jet, "other")


def test_fields_cannot_be_assigned_or_deleted():
    h = Hyperbolic(2)
    with pytest.raises(AttributeError):
        h.n = 3
    with pytest.raises(AttributeError):
        del h.n
    with pytest.raises(AttributeError):
        h.extra = 1
    assert h.n == 2


def test_defaults_and_positional_or_keyword_construction():
    v = Verdict(k=1, status=CONSISTENT)
    assert (v.polynomial, v.witness, v.free_indices, v.note) == (None, None, (), "")
    assert v == Verdict(1, CONSISTENT) == Verdict(1, status=CONSISTENT, note="")
    assert Verdict(2, CONSISTENT, None, None, (1,), "n") == Verdict(
        note="n", free_indices=(1,), status=CONSISTENT, k=2
    )


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),
        ((1,), {}),
        ((), {"status": CONSISTENT}),
        ((1, CONSISTENT), {"colour": 1}),
        ((1, CONSISTENT), {"k": 2}),
        ((1, CONSISTENT, None, None, (), "", "extra"), {}),
    ],
)
def test_missing_unknown_or_repeated_argument_raises(args, kwargs):
    with pytest.raises(TypeError):
        Verdict(*args, **kwargs)


def test_repr_names_the_fields():
    assert repr(Hyperbolic(2)) == "Hyperbolic(n=2)"
    assert repr(TypeI(2, 3)) == "TypeI(p=2, q=3)"


def test_match_patterns_read_the_fields():
    match TypeI(2, 3):
        case TypeI(p=p, q=q):
            assert (p, q) == (2, 3)
    match Hyperbolic(4):
        case Hyperbolic(n):
            assert n == 4
