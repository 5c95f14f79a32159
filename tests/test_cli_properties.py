"""Property tests for what the CLI reads from outside, record files and
command-line values, and for the record files it writes. Every input is
either accepted or refused with a ValueError; none may escape as another
exception. Each writer gives its standard-library oracle's bytes, and the
record check and the chain checks under it, check_steps and chain_steps,
give what their longhand oracles give: the same result, or a refusal of
the same type with the same message."""

import argparse
import csv
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from latticechains.cli import (
    CSV_COLUMNS,
    PolygonRecord,
    nonnegative_int,
    positive_int,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
    unit_fraction,
)
from latticechains.enumeration import enumerate_polygons
from latticechains.geometry import PolygonStats, TriangleSpec, chain_steps, check_steps
from record_oracles import outcome, steps_oracle, validate_oracle, vertices_oracle
from writer_oracles import csv_oracle, json_oracle

# derandomized so the suite runs the same examples every time
SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

RECORDS = list(enumerate_polygons(TriangleSpec(3, 5)))
CSV_ROWS = list(csv.reader(io.StringIO(records_to_csv(RECORDS))))[1:]
JSON_OBJS = json.loads(records_to_json(RECORDS))
JSON_KEYS = list(JSON_OBJS[0])

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


# negative, small, and past 2^64, where no fixed-width integer reaches
INTEGERS = st.integers(-9, 9) | st.integers(-(2**80), 2**80)
RECORD_LISTS = st.lists(
    st.builds(
        PolygonRecord,
        st.lists(st.tuples(INTEGERS, INTEGERS), min_size=1, max_size=8).map(tuple),
        st.lists(INTEGERS, min_size=7, max_size=7).map(lambda values: PolygonStats(*values)),
    ),
    max_size=5,
)


# every record of every triangle with legs up to 10: 3,958 records
FAMILY = [record for i in range(1, 11) for j in range(1, 11)
          for record in enumerate_polygons(TriangleSpec(i, j))]
# a tampered value: near a real coordinate or field, or of another type
VALUES = (st.integers(-1, 11) | INTEGERS | st.booleans() | st.none() | TEXT
          | st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def tampered_records(draw):
    """A record of FAMILY with one coordinate, vertex or stats field
    replaced, one vertex dropped, or two vertices swapped."""
    vertices, stats = draw(st.sampled_from(FAMILY))
    vertices = list(vertices)
    index = draw(st.integers(0, len(vertices) - 1))
    kind = draw(st.sampled_from(["coordinate", "vertex", "drop", "swap", "stat"]))
    if kind == "coordinate":
        point = list(vertices[index])
        point[draw(st.integers(0, 1))] = draw(VALUES)
        vertices[index] = tuple(point)
    elif kind == "vertex":
        vertices[index] = draw(st.tuples(VALUES, VALUES, VALUES) | st.lists(VALUES, max_size=3) | VALUES)
    elif kind == "drop":
        del vertices[index]
    elif kind == "swap":
        other = draw(st.integers(0, len(vertices) - 1))
        vertices[index], vertices[other] = vertices[other], vertices[index]
    else:
        values = list(stats)
        values[draw(st.integers(0, len(values) - 1))] = draw(VALUES)
        stats = PolygonStats(*values)
    return PolygonRecord(tuple(vertices), stats)


def test_validate_accepts_every_record_of_the_family():
    for record in FAMILY:
        record.validate()
        validate_oracle(record)


@SETTINGS
@given(tampered_records())
def test_validate_accepts_what_the_polygon_route_accepts(record):
    assert outcome(PolygonRecord.validate, record) == outcome(validate_oracle, record)


TAMPERS = ("move", "coordinate", "item", "drop", "repeat", "swap")


def tamper(draw, items: list, kinds=TAMPERS) -> tuple:
    """items, steps or vertices, with up to three tampers of these kinds: a
    coordinate moved by up to 2 or replaced, an item replaced, dropped or
    repeated, or two items swapped. So a chain often has several faults."""
    for _ in range(draw(st.integers(0, 3))):
        if not items:
            break
        index = draw(st.integers(0, len(items) - 1))
        kind = draw(st.sampled_from(kinds))
        item = items[index]
        if kind in ("move", "coordinate") and isinstance(item, tuple) and len(item) == 2:
            point = list(item)
            side = draw(st.integers(0, 1))
            if kind == "move" and type(point[side]) is int:
                point[side] += draw(st.integers(-2, 2))
            else:
                point[side] = draw(VALUES)
            items[index] = tuple(point)
        elif kind == "item":
            items[index] = draw(st.tuples(VALUES, VALUES, VALUES) | st.lists(VALUES, max_size=3) | VALUES)
        elif kind == "drop":
            del items[index]
        elif kind == "repeat":
            items.insert(index, item)
        elif kind == "swap":
            other = draw(st.integers(0, len(items) - 1))
            items[index], items[other] = items[other], items[index]
    return tuple(items)


SMALL_FAMILY = [record for record in FAMILY if max(record.vertices[-1]) <= 6]


@st.composite
def tampered_steps(draw):
    return tamper(draw, list(chain_steps(draw(st.sampled_from(SMALL_FAMILY)).vertices)[0]))


@st.composite
def tampered_vertices(draw):
    """A chain's vertices, tampered; or, for more slope faults, the partial
    sums of its steps with int tampers, tampered."""
    vertices = draw(st.sampled_from(SMALL_FAMILY)).vertices
    if draw(st.booleans()):
        steps = tamper(draw, list(chain_steps(vertices)[0]), ("move", "drop", "repeat", "swap"))
        vertices = [(0, 0)]
        for x, y in steps:
            vertices.append((vertices[-1][0] + x, vertices[-1][1] + y))
    return tamper(draw, list(vertices))


@SETTINGS
@given(tampered_steps())
def test_check_steps_refuses_as_its_oracle_refuses(steps):
    assert outcome(check_steps, steps) == outcome(steps_oracle, steps)


@SETTINGS
@given(tampered_vertices())
def test_chain_steps_refuses_as_its_oracle_refuses(vertices):
    assert outcome(chain_steps, vertices) == outcome(vertices_oracle, vertices)


@SETTINGS
@given(tampered_vertices(), st.sampled_from(FAMILY), st.integers(0, 9), VALUES)
def test_validate_refuses_as_its_oracle_refuses(vertices, record, field, value):
    # tampered vertices under a family record's stats, as they are or with
    # one field replaced
    stats = list(record.stats)
    if field < len(stats):
        stats[field] = value
    tampered = PolygonRecord(vertices, PolygonStats(*stats))
    assert outcome(PolygonRecord.validate, tampered) == outcome(validate_oracle, tampered)


def test_the_oracles_name_faults_in_their_order():
    # several faults at once: each check names the one its oracle names
    bad_stats = PolygonStats(1, 2, 0, 2, 0.5, 0, 4)
    cases = [
        # a slope, a sign and a type fault: the sign fault, first of the last two
        (check_steps, steps_oracle, ((1, 2), (1, 1), (1, 0), (1.5, 2)),
         (ValueError, "step (1,0) must be positive in both coordinates")),
        # three slope faults: the first
        (check_steps, steps_oracle, ((1, 2), (1, 1), (1, 1), (3, 1)),
         (ValueError, "slopes must strictly increase: (1,2) then (1,1)")),
        (check_steps, steps_oracle, ((1, 1), (True, 3), (0, 1)),
         (TypeError, "step coordinates must be ints, got (True,3)")),
        # a non-point after a wrong origin
        (chain_steps, vertices_oracle, ((1, 1), (0, 0), [2, 2]),
         (TypeError, "a lattice point is an (x, y) tuple of ints, got [2, 2]")),
        (chain_steps, vertices_oracle, ((1, 1),),
         (ValueError, "a chain needs at least 2 vertices")),
        # the steps (1,2), (1,1), (0,3), (1,0): a slope fault, then sign faults
        (chain_steps, vertices_oracle, ((0, 0), (1, 2), (2, 3), (2, 6), (3, 6)),
         (ValueError, "step (0,3) must be positive in both coordinates")),
        # a float field before a non-point
        (PolygonRecord.validate, validate_oracle, PolygonRecord(((0, 0), [1, 1]), bad_stats),
         (TypeError, "stats fields must be ints, got 0.5")),
    ]
    for check, oracle, arg, refusal in cases:
        assert outcome(check, arg) == outcome(oracle, arg) == refusal, arg


def test_validate_agrees_with_the_polygon_route_on_every_one_step_tamper():
    # each record of legs up to 7 with one coordinate or stats field moved
    # by one or made the float or bool of its value, one vertex dropped, or
    # two neighbouring vertices swapped
    for record in [r for r in FAMILY if max(r.vertices[-1]) <= 7]:
        vertices, stats = record
        tampered = []
        for index, (x, y) in enumerate(vertices):
            for a in (x - 1, x + 1, float(x), bool(x)):
                tampered.append((*vertices[:index], (a, y), *vertices[index + 1:]))
            for b in (y - 1, y + 1, float(y), bool(y)):
                tampered.append((*vertices[:index], (x, b), *vertices[index + 1:]))
            tampered.append(vertices[:index] + vertices[index + 1:])
            tampered.append((*vertices[:index], *vertices[index:index + 2][::-1], *vertices[index + 2:]))
        records = [PolygonRecord(v, stats) for v in tampered]
        for field, value in zip(PolygonStats._fields, stats):
            for changed in (value + 1, float(value), bool(value)):
                records.append(PolygonRecord(vertices, stats._replace(**{field: changed})))
        for r in records:
            assert outcome(PolygonRecord.validate, r) == outcome(validate_oracle, r), r


def same_integer(value, original) -> bool:
    """Whether the loader's int() would read `value` as `original`."""
    try:
        return int(value) == original
    except (ValueError, TypeError, OverflowError):
        return False


def csv_text(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return out.getvalue()


def refuses_naming(load, text: str, number: int) -> bool:
    try:
        load(text)
    except ValueError as exc:
        return str(exc).startswith(f"record {number}: ")
    return False


@SETTINGS
@given(RECORD_LISTS)
def test_json_writer_writes_what_json_dumps_writes(records):
    assert records_to_json(records) == json_oracle(records)


@SETTINGS
@given(RECORD_LISTS)
def test_csv_writer_writes_what_csv_writer_writes(records):
    assert records_to_csv(records) == csv_oracle(records)


@SETTINGS
@given(st.data())
def test_csv_loader_names_a_tampered_field(data):
    index = data.draw(st.integers(0, len(CSV_ROWS) - 1))
    column = data.draw(st.integers(0, len(CSV_COLUMNS) - 1))
    row = list(CSV_ROWS[index])
    if column < 7:
        value = data.draw(st.integers().map(str) | TEXT)
        assume(not same_integer(value, int(row[column])))
    else:
        value = data.draw(st.one_of(TEXT, JSON_VALUES.map(json.dumps)))
        assume(value != row[column])
    row[column] = value
    rows = [*CSV_ROWS[:index], row, *CSV_ROWS[index + 1:]]
    assert refuses_naming(records_from_csv, csv_text(rows), index + 1)


@SETTINGS
@given(st.integers(0, len(CSV_ROWS) - 1), st.integers(0, len(CSV_COLUMNS) + 3))
def test_csv_loader_names_a_row_of_the_wrong_length(index, length):
    assume(length != len(CSV_COLUMNS))
    row = (CSV_ROWS[index] * 2)[:length]
    rows = [*CSV_ROWS[:index], row, *CSV_ROWS[index + 1:]]
    assert refuses_naming(records_from_csv, csv_text(rows), index + 1)


@SETTINGS
@given(st.data())
def test_json_loader_names_a_tampered_field(data):
    index = data.draw(st.integers(0, len(JSON_OBJS) - 1))
    key = data.draw(st.sampled_from(JSON_KEYS))
    obj = dict(JSON_OBJS[index])
    if data.draw(st.booleans()):
        del obj[key]
    else:
        value = data.draw(JSON_VALUES)
        assume(not (value == obj[key] and type(value) is type(obj[key])))
        obj[key] = value
    objs = [*JSON_OBJS[:index], obj, *JSON_OBJS[index + 1:]]
    assert refuses_naming(records_from_json, json.dumps(objs), index + 1)


@SETTINGS
@given(st.integers(0, len(JSON_OBJS) - 1), JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
def test_json_loader_names_a_record_that_is_not_an_object(index, value):
    objs = [*JSON_OBJS[:index], value, *JSON_OBJS[index + 1:]]
    assert refuses_naming(records_from_json, json.dumps(objs), index + 1)


def accepts_or_refuses(parse, text: str):
    """parse(text), or None when it refuses the way argparse reports."""
    try:
        return parse(text)
    except (argparse.ArgumentTypeError, ValueError):
        return None


ARG_TEXT = st.one_of(
    TEXT,
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.tuples(st.integers(), st.integers()).map(lambda t: f"{t[0]}/{t[1]}"),
)


@SETTINGS
@given(ARG_TEXT)
def test_count_arguments_accept_or_refuse(text):
    value = accepts_or_refuses(positive_int, text)
    assert value is None or (type(value) is int and value >= 1)
    value = accepts_or_refuses(nonnegative_int, text)
    assert value is None or (type(value) is int and value >= 0)


@SETTINGS
@given(ARG_TEXT)
def test_unit_fraction_accepts_or_refuses(text):
    value = accepts_or_refuses(unit_fraction, text)
    assert value is None or (type(value) is Fraction and 0 < value < 1)
