"""The record check as the loaders once made it, kept as an oracle for
latticechains.cli.PolygonRecord.validate, which checks a record in one pass
and builds no polygon: every stats field an int, as the loaders required
of each field they read, then a TriangleSpec of the last vertex, a
ChainPolygon of the vertices in it, and its polygon_stats equal to the
record's stats."""

from latticechains.geometry import ChainPolygon, TriangleSpec, polygon_stats

# what a loader turns into a ValueError naming the record
REFUSALS = (ValueError, TypeError, KeyError, IndexError, OverflowError, RecursionError)


def validate_oracle(record) -> None:
    vertices, stats = record
    for value in stats:
        if type(value) is not int:
            raise TypeError(f"expected an integer, got {value!r}")
    spec = TriangleSpec(*vertices[-1])
    if polygon_stats(ChainPolygon(vertices, spec)) != stats:
        raise ValueError(f"record fields disagree with recomputation: {record}")


def accepts(check, record) -> bool:
    """Whether check(record) passes; a refusal a loader names is False."""
    try:
        check(record)
    except REFUSALS:
        return False
    return True
