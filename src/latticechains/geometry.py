"""Exact lattice geometry for convex chains in a right triangle.

Everything here is integer arithmetic: orientation tests are cross
products, areas are doubled to stay integral, and lattice counts come
from gcds and Pick's theorem. No floating point anywhere.

A chain is its vertex tuple, from (0,0) to (i,j). The one chain rule,
check_steps, the one check of a vertex chain, chain_steps, and of a chain
of a given triangle, check_chain, the chain sums pair_cross_sum and
pair_gcd_sum, the Pick arithmetic on them, chain_stats, a chain's
vertices, chain_vertices, and a chain polygon's record, PolygonRecord,
which enumerate_polygons lists and the record loaders check, are written
here.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter, itemgetter
from typing import NamedTuple


Point = tuple[int, int]  # a point of the integer lattice Z^2
Steps = tuple[tuple[int, int], ...]  # the steps (x, y) of a chain, in order


def _require_points(points) -> None:
    """Raise TypeError unless every point is an (x, y) tuple of ints; bool is
    refused, since a record would write True as the JSON literal true."""
    for p in points:
        if not (isinstance(p, tuple) and len(p) == 2
                and type(p[0]) is int and type(p[1]) is int):
            raise TypeError(f"a lattice point is an (x, y) tuple of ints, got {p!r}")


def check_steps(steps: Steps) -> None:
    """Raise ValueError unless steps is a chain: at least one step, each
    (x, y) with x >= 1 and y >= 1, and slopes y/x strictly increasing, i.e.
    x1*y2 - x2*y1 > 0 for consecutive steps. A coordinate that is not an
    int (bool included) is a TypeError, as it is for a lattice point."""
    if not steps:
        raise ValueError("a chain needs at least one step")
    for x, y in steps:
        if type(x) is not int or type(y) is not int:
            raise TypeError(f"step coordinates must be ints, got ({x!r},{y!r})")
        if x < 1 or y < 1:
            raise ValueError(f"step ({x},{y}) must be positive in both coordinates")
    for (x1, y1), (x2, y2) in zip(steps, steps[1:]):
        if x1 * y2 - x2 * y1 <= 0:
            raise ValueError(f"slopes must strictly increase: ({x1},{y1}) then ({x2},{y2})")


def chain_steps(vertices: tuple[Point, ...]) -> Steps:
    """The steps between these vertices, once they pass the one check of a
    vertex chain: each a lattice point, at least 2, the first (0,0), and the
    differences a chain that check_steps accepts. Callers check the end."""
    _require_points(vertices)
    if len(vertices) < 2:
        raise ValueError("a chain needs at least 2 vertices")
    if vertices[0] != (0, 0):
        raise ValueError(f"a chain must start at (0,0), got {vertices[0]}")
    # a list comprehension: on this per-polygon path a generator is slower
    steps = tuple([(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(vertices, vertices[1:])])
    check_steps(steps)
    return steps


def pair_cross_sum(steps: Steps) -> int:
    """Sum over l1 < l2 of (a_l1 * b_l2 - a_l2 * b_l1), in O(k): with A, B the
    sums of the steps before step l2, its pairs add A * b_l2 - a_l2 * B."""
    total = sum_a = sum_b = 0
    for a, b in steps:
        total += sum_a * b - a * sum_b
        sum_a += a
        sum_b += b
    return total


def pair_gcd_sum(steps: Steps) -> int:
    return sum(gcd(a, b) for a, b in steps)


def chain_vertices(steps: Steps) -> tuple[Point, ...]:
    """The vertices of the chain with these steps: (0,0) and the partial sums."""
    x = y = 0
    vertices = [(0, 0)]
    for dx, dy in steps:
        x += dx
        y += dy
        vertices.append((x, y))
    return tuple(vertices)


class FrozenSlots:
    """Base of the immutable value types whose constructor validates or
    derives fields. A subclass lists its constructor's fields in _fields and
    sets its slots in __init__ through object.__setattr__. Equality, hashing,
    repr and pickling read the _fields alone; assignment raises AttributeError.
    Plain records are NamedTuples. Neither uses dataclasses, whose import and
    decorators took a third of the import time that every command pays."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        # eq and hash read the fields in C, since explore compares signatures
        # in a loop; with one field, the key is that field's value
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TriangleSpec(FrozenSlots):
    """The right triangle with corners (0,0), (i,0), (i,j); its hypotenuse
    runs from (0,0) to (i,j) and is called the closing segment below.

    Two per-triangle constants are set once, at construction: g = gcd(i, j),
    so the hypotenuse holds g + 1 lattice points, and interior_count, I_T,
    the lattice points strictly inside, by Pick's theorem.
    """

    __slots__ = ("i", "j", "g", "interior_count")
    _fields = ("i", "j")

    def __init__(self, i: int, j: int):
        if type(i) is not int or type(j) is not int:
            raise TypeError(f"triangle legs must be ints, got i={i!r}, j={j!r}")
        if i < 1 or j < 1:
            raise ValueError(f"triangle legs must be >= 1, got i={i}, j={j}")
        g = gcd(i, j)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "interior_count", (i * j - i - j - g + 2) // 2)

    @property
    def n(self) -> int:
        return self.i + self.j

    @property
    def corners(self) -> tuple[Point, Point, Point]:
        return ((0, 0), (self.i, 0), (self.i, self.j))

    # only convex_hull_chain calls this; it goes with it (ROADMAP item 5)
    def contains_interior(self, p: Point) -> bool:
        """Strict interior: strictly below the hypotenuse, above y=0, left of x=i."""
        x, y = p
        return y > 0 and x < self.i and self.j * x - self.i * y > 0


def check_chain(vertices: tuple[Point, ...], spec: TriangleSpec) -> Steps:
    """The steps of a chain polygon of spec's triangle: vertices that pass
    chain_steps and end at (i,j). The closing hypotenuse edge is implicit,
    and a 2-vertex chain is the degenerate 2-gon equal to the hypotenuse
    itself. Every intermediate vertex then has y >= 1 and x <= i - 1 and
    lies strictly below the hypotenuse, each step before it flatter than
    each after."""
    steps = chain_steps(vertices)
    if vertices[-1] != (spec.i, spec.j):
        raise ValueError(f"chain must end at ({spec.i},{spec.j}), got {vertices[-1]}")
    return steps


def triangle_interior_points(spec: TriangleSpec) -> list[Point]:
    """All lattice points strictly inside the triangle, in lexicographic
    (x, y) order."""
    points = []
    for x in range(1, spec.i):
        # y >= 1 and j*x - i*y > 0, i.e. y <= ceil(j*x/i) - 1
        for y in range(1, (spec.j * x - 1) // spec.i + 1):
            points.append((x, y))
    return points


class PolygonStats(NamedTuple):
    """The integer invariants of one chain polygon: its k, v(P), i(P), b(P),
    doubled area and u(P), and the doubled q-exponent of its polygon-form
    term, 2 * (i(P) + b(P) - (k - 1))."""

    k: int
    v_count: int
    interior: int
    boundary: int
    area2: int
    u: int
    exponent_doubled: int


def chain_stats(steps: Steps, spec: TriangleSpec) -> PolygonStats:
    """The invariants of the chain polygon with these steps in spec's
    triangle, in O(k), from the chain sums over the steps. The steps are
    not checked: pass a chain that check_steps accepts, ending at (i, j).

    The closing edge (i,j)->(0,0) adds nothing to the shoelace sum, so
    area2 is pair_cross_sum over the steps, and the edge-gcd sum G is
    pair_gcd_sum; the hypotenuse adds gcd(i,j) boundary points. Pick's
    theorem then gives i(P), and TriangleSpec.interior_count gives the
    triangle's I_T. The triangle interior points outside P are those not
    inside P and not among the G - 1 chain points strictly between (0,0)
    and (i,j). The exponent is 2 * (i(P) + b(P) - (k - 1)). The 2-gon is
    the hypotenuse itself: no area, no interior, u = I_T, exponent 2g + 2.
    """
    k = len(steps)
    if k == 1:
        return PolygonStats(k=1, v_count=2, interior=0, boundary=spec.g + 1, area2=0,
                            u=spec.interior_count, exponent_doubled=2 * spec.g + 2)
    area2 = pair_cross_sum(steps)
    edge_gcds = pair_gcd_sum(steps)
    boundary = edge_gcds + spec.g
    interior = (area2 - boundary + 2) // 2
    u = spec.interior_count - interior - (edge_gcds - 1)
    # positional, in PolygonStats' field order: keywords slow this call,
    # made once per record written and once per record loaded
    return PolygonStats(k, k + 1, interior, boundary, area2, u, 2 * (interior + boundary - (k - 1)))


# The record schema: each JSON key and CSV column, in CSV column order, which
# is PolygonStats' field order: the key at each place holds the field at that
# place. The vertices are the last CSV column and the first JSON key.
FIELDS = ("k", "vCount", "iP", "bP", "area2", "u", "exponentDoubled")
CSV_COLUMNS = [*FIELDS, "vertices"]
_JSON_KEYS = frozenset(CSV_COLUMNS)
_json_fields = itemgetter(*FIELDS)


class PolygonRecord(NamedTuple):
    """A chain polygon as enumerate, render and simulate read it: its
    vertices and the chain_stats of their steps, so every statistic is
    recomputable."""

    vertices: tuple
    stats: PolygonStats

    # no command calls this; it stays while perfbench/child.py calls it (ROADMAP item 5)
    def to_json_obj(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices],
                **dict(zip(FIELDS, self.stats))}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PolygonRecord":
        """The record a JSON object stands for, unchecked: validate checks it."""
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {obj!r}")
        extra = obj.keys() - _JSON_KEYS
        if extra:
            raise ValueError(f"unexpected keys {sorted(extra)}")
        return cls(_points(obj["vertices"]), PolygonStats(*_json_fields(obj)))

    def validate(self, specs: dict | None = None) -> None:
        """The one check of a record: every stats field an int (bool refused:
        a writer would emit True as the JSON literal true), the vertices a
        chain that chain_steps accepts, and chain_stats of its steps
        equal to the stats, else the record is corrupt. A loader passes one
        `specs` dict for all its records: one triangle per distinct end."""
        vertices, stats = self
        for value in stats:
            if type(value) is not int:
                raise TypeError(f"stats fields must be ints, got {value!r}")
        steps = chain_steps(vertices)
        if specs is None:
            specs = {}
        end = vertices[-1]
        spec = specs.get(end) or specs.setdefault(end, TriangleSpec(*end))
        if chain_stats(steps, spec) != stats:
            raise ValueError(f"record fields disagree with recomputation: {self}")


def _points(raw) -> tuple:
    """A record's vertices as read from JSON, each pair as a tuple."""
    return tuple([(x, y) for x, y in raw])


# no command calls this; it stays while perfbench wraps it (ROADMAP item 5)
def polygon_stats(vertices: tuple[Point, ...], spec: TriangleSpec) -> PolygonStats:
    """The invariants of the chain polygon with these vertices, once
    check_chain accepts them: chain_stats of its steps."""
    return chain_stats(check_chain(vertices, spec), spec)


def lower_hull(points) -> tuple[Point, ...]:
    """The lower convex hull of points given in increasing (x, y) order, as
    the chain of its vertices from the first point to the last (Andrew's
    monotone chain). A point on or above the segment between its hull
    neighbours is dropped, so collinear middle points are too. The points
    are not checked: check_chain of the hull checks it."""
    hull: list[Point] = []
    for point in points:
        x, y = point
        # pop the last hull point while it and its predecessor do not turn left to (x, y)
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            hull.pop()
        hull.append(point)
    return tuple(hull)


# no command calls this; it stays while perfbench wraps it (ROADMAP item 5)
def convex_hull_chain(chosen, spec: TriangleSpec) -> tuple[Point, ...]:
    """The vertices of the chain polygon whose closed region is the convex
    hull of (0,0), (i,j) and the chosen points, checked by check_chain.

    The chosen points must be strictly interior to the triangle; they then
    all lie strictly below the hypotenuse, so the hull's upper boundary is
    the hypotenuse itself and its lower boundary is lower_hull of the
    sorted points. Every chosen point must be an (x, y) tuple of ints,
    extreme or not. Collinear non-extreme points are dropped. An empty
    selection yields the 2-gon.
    """
    chosen = list(chosen)
    _require_points(chosen)
    for p in chosen:
        if not spec.contains_interior(p):
            raise ValueError(f"point {p} is not strictly interior to the triangle")
    hull = lower_hull(sorted({(0, 0), (spec.i, spec.j), *chosen}))
    check_chain(hull, spec)
    return hull
