"""The value types' contract, whatever builds them: constructors by position
and by keyword, equality and hashing over the constructor's fields only,
no assignment, a pinned repr where one reaches an error message, and
copying and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from latticechains.explorer import Signature
from latticechains.geometry import PolygonRecord, PolygonStats, TriangleSpec, polygon_stats
from latticechains.montecarlo import (
    ComparisonReport,
    ComparisonRow,
    FrequencyTable,
    SimulationConfig,
)
from latticechains.verification import IdentityReport, verify_all

SPEC = TriangleSpec(3, 4)
VERTICES = ((0, 0), (1, 1), (3, 4))
STATS = polygon_stats(VERTICES, SPEC)
ROW = ComparisonRow(VERTICES, 1, 0.1, Fraction(1, 10), 0.0, False)
REPORT = verify_all(2, 5)


# name -> (build, fields, keyword arguments of one value, the same value
# with one field changed); build() gives a fresh value equal to the first
VALUES = {
    "TriangleSpec": (lambda: TriangleSpec(3, 4), ("i", "j"),
                     {"i": 3, "j": 4}, TriangleSpec(4, 3)),
    "PolygonStats": (lambda: polygon_stats(VERTICES, SPEC),
                     ("k", "v_count", "interior", "boundary", "area2", "u", "exponent_doubled"),
                     {"k": 2, "v_count": 3, "interior": 0, "boundary": 3, "area2": 1, "u": 2,
                      "exponent_doubled": 4},
                     PolygonStats(2, 3, 0, 3, 1, 2, 6)),
    "PolygonRecord": (lambda: PolygonRecord(VERTICES, STATS), ("vertices", "stats"),
                      {"vertices": VERTICES, "stats": STATS},
                      PolygonRecord(((0, 0), (3, 4)), STATS)),
    "Signature": (lambda: Signature(((0, 1), (1, 0))), ("pairs",),
                  {"pairs": ((1, 0), (0, 1))}, Signature(((0, 1),))),
    "SimulationConfig": (lambda: SimulationConfig(SPEC, Fraction(1, 3), 10, 0),
                         ("spec", "x", "trials", "seed"),
                         {"spec": SPEC, "x": Fraction(1, 3), "trials": 10, "seed": 0},
                         SimulationConfig(SPEC, Fraction(1, 3), 10, 1)),
    "FrequencyTable": (lambda: FrequencyTable({VERTICES: 10}), ("counts",),
                       {"counts": {VERTICES: 10}}, FrequencyTable({VERTICES: 9})),
    "ComparisonRow": (lambda: ComparisonRow(VERTICES, 1, 0.1, Fraction(1, 10), 0.0, False),
                      ("vertices", "count", "empirical", "exact", "z", "flagged"),
                      {"vertices": VERTICES, "count": 1, "empirical": 0.1, "exact": Fraction(1, 10),
                       "z": 0.0, "flagged": False},
                      ComparisonRow(VERTICES, 1, 0.1, Fraction(1, 10), 0.0, True)),
    "ComparisonReport": (lambda: ComparisonReport((ROW,), Fraction(1), 4.0),
                         ("rows", "exact_total", "z_threshold"),
                         {"rows": (ROW,), "exact_total": Fraction(1), "z_threshold": 4.0},
                         ComparisonReport((ROW,), Fraction(1), 5.0)),
    "IdentityReport": (lambda: verify_all(2, 5), ("spec", "lhs", "rhs", "checks", "d_keys"),
                       {"spec": REPORT.spec, "lhs": REPORT.lhs, "rhs": REPORT.rhs,
                        "checks": REPORT.checks, "d_keys": REPORT.d_keys},
                       IdentityReport(REPORT.spec, REPORT.lhs, REPORT.rhs,
                                      (("d_form", False), *REPORT.checks[1:]), REPORT.d_keys)),
}
# FrequencyTable holds a dict, and IdentityReport polynomials, which do not hash
HASHABLE = sorted(VALUES.keys() - {"FrequencyTable", "IdentityReport"})
# FrequencyTable is the one mutable record
FROZEN = sorted(VALUES.keys() - {"FrequencyTable"})


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_reads_the_constructor_fields(name):
    build, fields, kwargs, changed = VALUES[name]
    value = build()
    assert type(value).__name__ == name
    assert value == build() == type(value)(**kwargs) == type(value)(*kwargs.values())
    assert [getattr(value, field) for field in fields] == [getattr(build(), field) for field in fields]
    assert value != changed
    assert not value != build()


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_alike(name):
    build, _, _, changed = VALUES[name]
    assert hash(build()) == hash(build())
    assert len({build(), build(), changed}) == 2


@pytest.mark.parametrize("name", sorted(VALUES.keys() - set(HASHABLE)))
def test_values_over_unhashable_fields_do_not_hash(name):
    with pytest.raises(TypeError):
        hash(VALUES[name][0]())


@pytest.mark.parametrize("name, derived", [
    ("TriangleSpec", {"g": 99, "interior_count": 99}),
])
def test_derived_fields_take_no_part_in_equality(name, derived):
    build = VALUES[name][0]
    value, other = build(), build()
    for field, junk in derived.items():
        object.__setattr__(other, field, junk)
    assert value == other
    assert hash(value) == hash(other)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, fields, _, _ = VALUES[name]
    value = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == build()


def test_derived_fields_cannot_be_assigned():
    for value, field in [(TriangleSpec(3, 4), "g"), (TriangleSpec(3, 4), "interior_count")]:
        with pytest.raises(AttributeError):
            setattr(value, field, 1)


def test_repr_of_the_types_that_reach_error_messages():
    # the loaders' "disagree with recomputation" error prints a record and its
    # stats; a triangle's repr is pinned alongside
    assert repr(SPEC) == "TriangleSpec(i=3, j=4)"
    assert repr(STATS) == ("PolygonStats(k=2, v_count=3, interior=0, boundary=3, area2=1, u=2, "
                           "exponent_doubled=4)")
    assert repr(PolygonRecord(VERTICES, STATS)) == (
        "PolygonRecord(vertices=((0, 0), (1, 1), (3, 4)), stats=PolygonStats(k=2, v_count=3, "
        "interior=0, boundary=3, area2=1, u=2, exponent_doubled=4))")


def test_signature_is_not_a_tuple():
    # it defines its own len and iter over its pairs; a tuple subclass would
    # also compare equal to a plain tuple of its fields
    sig = Signature(((1, 0), (0, 1)))
    assert not isinstance(sig, tuple)
    assert len(sig) == 2 and list(sig) == [(0, 1), (1, 0)]
    assert sig != sig.pairs and sig != (sig.pairs,)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_copies_and_pickles_are_equal(name):
    value = VALUES[name][0]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_copy_keeps_the_derived_fields():
    spec = pickle.loads(pickle.dumps(SPEC))
    assert (spec.g, spec.interior_count) == (SPEC.g, SPEC.interior_count) == (1, 3)
