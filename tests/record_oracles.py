"""The chain and record checks written out longhand, kept as oracles for
latticechains.geometry: steps_oracle for check_steps, vertices_oracle for
chain_steps and validate_oracle for PolygonRecord.validate. Each gives the
same result as the function it stands for, and refuses what it refuses
with the same exception type and message, but states the rule one fault
kind at a time, each in its own pass, in the order the refusals are named:

* a record: a stats field that is not an int, bool refused;
* vertices: a vertex that is not an (x, y) tuple of ints, bool refused;
  then fewer than 2 vertices; then a first vertex other than (0,0);
* steps: no step; then, step by step, a coordinate that is not an int
  or a step not positive in both coordinates; then the first pair of
  consecutive steps whose slopes, compared as exact fractions, do not
  strictly increase;
* a record: chain_stats of the sums, which the scan oracles pin, unequal
  to its stats.

The sums come by other routes than check_steps' running sums: area2 by
the shoelace formula over the vertices, the closing edge adding nothing,
and the vertices as partial sums of the steps."""

from fractions import Fraction
from math import gcd

from latticechains.geometry import TriangleSpec, chain_stats

# what a loader turns into a ValueError naming the record
REFUSALS = (ValueError, TypeError, KeyError, IndexError, OverflowError, RecursionError)


def steps_oracle(steps):
    """check_steps longhand: (vertices, area2, edge_gcds) of a chain."""
    if not steps:
        raise ValueError("a chain needs at least one step")
    for x, y in steps:
        if type(x) is not int or type(y) is not int:
            raise TypeError(f"step coordinates must be ints, got ({x!r},{y!r})")
        if x < 1 or y < 1:
            raise ValueError(f"step ({x},{y}) must be positive in both coordinates")
    for (x1, y1), (x2, y2) in zip(steps, steps[1:]):
        if Fraction(y1, x1) >= Fraction(y2, x2):
            raise ValueError(f"slopes must strictly increase: ({x1},{y1}) then ({x2},{y2})")
    vertices = [(0, 0)]
    for x, y in steps:
        vertices.append((vertices[-1][0] + x, vertices[-1][1] + y))
    area2 = sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(vertices, vertices[1:]))
    return tuple(vertices), area2, sum(gcd(x, y) for x, y in steps)


def vertices_oracle(vertices):
    """chain_steps longhand: (steps, area2, edge_gcds) of a vertex chain."""
    for vertex in vertices:
        if not (isinstance(vertex, tuple) and len(vertex) == 2
                and type(vertex[0]) is int and type(vertex[1]) is int):
            raise TypeError(f"a lattice point is an (x, y) tuple of ints, got {vertex!r}")
    if len(vertices) < 2:
        raise ValueError("a chain needs at least 2 vertices")
    if vertices[0] != (0, 0):
        raise ValueError(f"a chain must start at (0,0), got {vertices[0]}")
    steps = tuple((bx - ax, by - ay) for (ax, ay), (bx, by) in zip(vertices, vertices[1:]))
    _, area2, edge_gcds = steps_oracle(steps)
    return steps, area2, edge_gcds


def validate_oracle(record) -> None:
    """PolygonRecord.validate longhand."""
    vertices, stats = record
    for value in stats:
        if type(value) is not int:
            raise TypeError(f"stats fields must be ints, got {value!r}")
    steps, area2, edge_gcds = vertices_oracle(vertices)
    if chain_stats(len(steps), area2, edge_gcds, TriangleSpec(*vertices[-1])) != stats:
        raise ValueError(f"record fields disagree with recomputation: {record}")


def outcome(check, *args):
    """What check(*args) returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except REFUSALS as exc:
        return type(exc), str(exc)
