"""The record check written out longhand, kept as an oracle for
latticechains.geometry.PolygonRecord.validate, which checks a record
through geometry.chain_steps, the check check_chain makes too. So the
vertex rule is stated here again, without that function: every stats
field an int and every vertex an (x, y) tuple of ints, bool refused in
both; at least 2 vertices, the first (0,0); every step positive in both
coordinates; and the step slopes strictly increasing, compared as exact
fractions. Then chain_stats of the steps, which the scan oracles pin, must
equal the record's stats."""

from fractions import Fraction

from latticechains.geometry import TriangleSpec, chain_stats

# what a loader turns into a ValueError naming the record
REFUSALS = (ValueError, TypeError, KeyError, IndexError, OverflowError, RecursionError)


def validate_oracle(record) -> None:
    vertices, stats = record
    for value in stats:
        if type(value) is not int:
            raise TypeError(f"expected an integer, got {value!r}")
    for vertex in vertices:
        if not (isinstance(vertex, tuple) and len(vertex) == 2
                and type(vertex[0]) is int and type(vertex[1]) is int):
            raise TypeError(f"expected an (x, y) tuple of ints, got {vertex!r}")
    if len(vertices) < 2 or vertices[0] != (0, 0):
        raise ValueError(f"expected at least 2 vertices from (0,0), got {vertices}")
    steps = tuple((bx - ax, by - ay) for (ax, ay), (bx, by) in zip(vertices, vertices[1:]))
    if min(min(step) for step in steps) < 1:
        raise ValueError(f"expected positive steps, got {steps}")
    slopes = [Fraction(y, x) for x, y in steps]
    if any(low >= high for low, high in zip(slopes, slopes[1:])):
        raise ValueError(f"expected strictly increasing slopes, got {steps}")
    if chain_stats(steps, TriangleSpec(*vertices[-1])) != stats:
        raise ValueError(f"record fields disagree with recomputation: {record}")


def accepts(check, record) -> bool:
    """Whether check(record) passes; a refusal a loader names is False."""
    try:
        check(record)
    except REFUSALS:
        return False
    return True
